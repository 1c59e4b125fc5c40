//===- net/Connection.cpp - Non-blocking buffered connection --------------===//

#include "net/Connection.h"

#include "serve/Socket.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace bec;
using namespace bec::net;

namespace {

/// Per-readSome fairness cap: one hog connection cannot starve the loop.
constexpr size_t MaxReadPerEvent = 256u * 1024;

/// Compaction threshold for the consumed prefix of a buffer.
constexpr size_t CompactAt = 64u * 1024;

} // namespace

Connection::Connection(int FD, uint64_t Id) : FD(FD), Id(Id) {
  serve::setNoDelay(FD);
  int Flags = ::fcntl(FD, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(FD, F_SETFL, Flags | O_NONBLOCK);
}

Connection::~Connection() { closeNow(); }

void Connection::closeNow() {
  if (FD >= 0) {
    ::close(FD);
    FD = -1;
  }
}

Connection::IoStatus Connection::readSome(std::string &Err) {
  char Tmp[16 * 1024];
  size_t Total = 0;
  for (;;) {
    ssize_t N = ::recv(FD, Tmp, sizeof(Tmp), 0);
    if (N > 0) {
      InBuf.append(Tmp, size_t(N));
      Total += size_t(N);
      if (Total >= MaxReadPerEvent)
        return IoStatus::Ok; // Level-triggered poll re-fires for the rest.
      continue;
    }
    if (N == 0)
      return IoStatus::Closed;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return IoStatus::Ok;
    if (errno == EINTR)
      continue;
    Err = std::string("recv: ") + std::strerror(errno);
    return IoStatus::Error;
  }
}

Connection::FrameStatus Connection::nextFrame(std::string &Line,
                                              size_t MaxLen) {
  size_t NL = InBuf.find('\n', InPos);
  if (NL == std::string::npos) {
    if (InBuf.size() - InPos > MaxLen)
      return FrameStatus::TooLong;
    if (InPos >= CompactAt) {
      InBuf.erase(0, InPos);
      InPos = 0;
    }
    return FrameStatus::None;
  }
  if (NL - InPos > MaxLen)
    return FrameStatus::TooLong;
  Line.assign(InBuf, InPos, NL - InPos);
  InPos = NL + 1;
  if (InPos == InBuf.size()) {
    InBuf.clear();
    InPos = 0;
  }
  return FrameStatus::Frame;
}

void Connection::queueWrite(std::string_view Data) { OutBuf.append(Data); }

Connection::IoStatus Connection::flushSome(std::string &Err) {
  while (OutPos < OutBuf.size()) {
    ssize_t N = ::send(FD, OutBuf.data() + OutPos, OutBuf.size() - OutPos,
                       MSG_NOSIGNAL);
    if (N > 0) {
      OutPos += size_t(N);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (OutPos >= CompactAt) {
        OutBuf.erase(0, OutPos);
        OutPos = 0;
      }
      return IoStatus::Ok;
    }
    if (errno == EINTR)
      continue;
    Err = std::string("send: ") + std::strerror(errno);
    return IoStatus::Error;
  }
  OutBuf.clear();
  OutPos = 0;
  return IoStatus::Ok;
}
