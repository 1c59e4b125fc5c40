//===- serve/Socket.cpp - Blocking TCP sockets -----------------------------===//

#include "serve/Socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace bec;
using namespace bec::serve;

namespace {

std::string errnoString(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

} // namespace

void bec::serve::setNoDelay(int FD) {
  int One = 1;
  ::setsockopt(FD, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
}

//===----------------------------------------------------------------------===//
// Socket
//===----------------------------------------------------------------------===//

Socket::Socket(Socket &&O) noexcept : FD(O.FD), Buffer(std::move(O.Buffer)) {
  O.FD = -1;
}

Socket &Socket::operator=(Socket &&O) noexcept {
  if (this != &O) {
    close();
    FD = O.FD;
    Buffer = std::move(O.Buffer);
    O.FD = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() {
  if (FD >= 0) {
    ::close(FD);
    FD = -1;
  }
}

bool Socket::sendAll(std::string_view Data, std::string &Err) {
  while (!Data.empty()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    ssize_t N = ::send(FD, Data.data(), Data.size(), MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoString("send");
      return false;
    }
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

Socket::RecvStatus Socket::recvLine(std::string &Line, size_t MaxLen,
                                    std::string &Err) {
  for (;;) {
    size_t NL = Buffer.find('\n');
    if (NL != std::string::npos) {
      Line.assign(Buffer, 0, NL);
      Buffer.erase(0, NL + 1);
      return RecvStatus::Line;
    }
    if (Buffer.size() > MaxLen)
      return RecvStatus::TooLong;
    char Chunk[16384];
    ssize_t N = ::recv(FD, Chunk, sizeof Chunk, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoString("recv");
      return RecvStatus::Error;
    }
    if (N == 0)
      return RecvStatus::Eof;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

//===----------------------------------------------------------------------===//
// ListenSocket
//===----------------------------------------------------------------------===//

ListenSocket::~ListenSocket() { close(); }

void ListenSocket::close() {
  if (FD >= 0) {
    ::close(FD);
    FD = -1;
  }
}

bool ListenSocket::listenOn(const std::string &Host, uint16_t RequestedPort,
                            std::string &Err) {
  close();
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(RequestedPort);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Err = "invalid bind address '" + Host + "' (want an IPv4 literal)";
    return false;
  }

  FD = ::socket(AF_INET, SOCK_STREAM, 0);
  if (FD < 0) {
    Err = errnoString("socket");
    return false;
  }
  int One = 1;
  ::setsockopt(FD, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  if (::bind(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    Err = errnoString("bind");
    close();
    return false;
  }
  if (::listen(FD, 64) != 0) {
    Err = errnoString("listen");
    close();
    return false;
  }
  socklen_t Len = sizeof Addr;
  if (::getsockname(FD, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    Err = errnoString("getsockname");
    close();
    return false;
  }
  Port = ntohs(Addr.sin_port);
  return true;
}

//===----------------------------------------------------------------------===//
// splitHostPort / connectTo
//===----------------------------------------------------------------------===//

bool bec::serve::splitHostPort(std::string_view Addr, std::string &Host,
                               uint16_t &Port) {
  size_t Colon = Addr.rfind(':');
  if (Colon == std::string_view::npos || Colon == 0)
    return false;
  const char *End = Addr.data() + Addr.size();
  uint16_t P = 0;
  auto [Stop, Ec] = std::from_chars(Addr.data() + Colon + 1, End, P);
  if (Ec != std::errc() || Stop != End || P == 0)
    return false;
  Host = Addr.substr(0, Colon);
  Port = P;
  return true;
}

std::optional<Socket> bec::serve::connectTo(const std::string &Host,
                                            uint16_t Port, std::string &Err) {
  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Infos = nullptr;
  std::string Service = std::to_string(Port);
  int GAI = ::getaddrinfo(Host.c_str(), Service.c_str(), &Hints, &Infos);
  if (GAI != 0) {
    Err = "cannot resolve '" + Host + "': " + ::gai_strerror(GAI);
    return std::nullopt;
  }

  std::string LastErr = "no addresses";
  for (addrinfo *AI = Infos; AI; AI = AI->ai_next) {
    int FD = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (FD < 0) {
      LastErr = errnoString("socket");
      continue;
    }
    if (::connect(FD, AI->ai_addr, AI->ai_addrlen) == 0) {
      ::freeaddrinfo(Infos);
      setNoDelay(FD);
      return Socket(FD);
    }
    LastErr = errnoString("connect");
    ::close(FD);
  }
  ::freeaddrinfo(Infos);
  Err = "cannot connect to " + Host + ":" + Service + " (" + LastErr + ")";
  return std::nullopt;
}
