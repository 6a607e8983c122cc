#include "mcsn/serve/net/client.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include "mcsn/serve/net/detail.hpp"
#include "mcsn/serve/wire.hpp"

namespace mcsn::net {

using detail::errno_text;
using detail::kReadChunk;

namespace {

using Clock = std::chrono::steady_clock;

/// Connects `fd` to `addr`, bounded by `timeout` when set. Always runs the
/// attempt non-blocking + poll(2): that is the only portable way to both
/// bound the wait and survive EINTR correctly (retrying a blocking
/// ::connect after a signal yields EALREADY/EISCONN races; poll simply
/// resumes with the recomputed remaining budget). Restores blocking mode
/// on success. Closes nothing — the caller owns the fd either way.
Status connect_bounded(int fd, const sockaddr* addr, socklen_t addr_len,
                       std::optional<std::chrono::milliseconds> timeout) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::unavailable(errno_text("fcntl(O_NONBLOCK)"));
  }
  const Clock::time_point deadline =
      timeout ? Clock::now() + *timeout : Clock::time_point::max();

  int rc;
  do {
    rc = ::connect(fd, addr, addr_len);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno != EINPROGRESS) {
    return Status::unavailable(errno_text("connect"));
  }
  if (rc < 0) {
    // In progress: wait for writability, recomputing the remaining budget
    // after every EINTR so interrupted waits neither shorten nor extend it.
    pollfd pfd{fd, POLLOUT, 0};
    for (;;) {
      int wait_ms = -1;
      if (timeout) {
        const auto remaining = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now());
        if (remaining.count() <= 0) {
          return Status::deadline_exceeded("connect timed out");
        }
        wait_ms = static_cast<int>(remaining.count());
      }
      const int n = ::poll(&pfd, 1, wait_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::unavailable(errno_text("poll(connect)"));
      }
      if (n == 0) {
        return Status::deadline_exceeded("connect timed out");
      }
      break;
    }
    int err = 0;
    socklen_t err_len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0) {
      return Status::unavailable(errno_text("getsockopt(SO_ERROR)"));
    }
    if (err != 0) {
      return Status::unavailable(
          "connect: " +
          std::error_code(err, std::generic_category()).message());
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return Status::unavailable(errno_text("fcntl(restore blocking)"));
  }
  return Status();
}

}  // namespace

SortClient::~SortClient() { close(); }

SortClient::SortClient(SortClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      rbuf_(std::move(other.rbuf_)),
      scratch_(std::move(other.scratch_)) {}

SortClient& SortClient::operator=(SortClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rbuf_ = std::move(other.rbuf_);
    scratch_ = std::move(other.scratch_);
  }
  return *this;
}

StatusOr<SortClient> SortClient::connect(
    const std::string& host, std::uint16_t port,
    std::optional<std::chrono::milliseconds> timeout) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  const std::string port_str = std::to_string(port);
  addrinfo* found = nullptr;
  if (const int rc =
          ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &found);
      rc != 0) {
    return Status::unavailable("getaddrinfo(" + host +
                               "): " + ::gai_strerror(rc));
  }
  Status last = Status::unavailable("no usable address for " + host);
  for (addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::unavailable(errno_text("socket"));
      continue;
    }
    last = connect_bounded(fd, ai->ai_addr, ai->ai_addrlen, timeout);
    if (last.ok()) {
      int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::freeaddrinfo(found);
      return SortClient(fd);
    }
    ::close(fd);
    if (last.code() == StatusCode::kDeadlineExceeded) break;  // budget spent
  }
  ::freeaddrinfo(found);
  return last;
}

StatusOr<SortClient> SortClient::connect_unix(
    const std::string& path,
    std::optional<std::chrono::milliseconds> timeout) {
  sockaddr_un sa{};
  if (path.empty() || path.size() >= sizeof sa.sun_path) {
    return Status::invalid_argument("bad unix socket path: \"" + path + "\"");
  }
  sa.sun_family = AF_UNIX;
  std::memcpy(sa.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::unavailable(errno_text("socket(AF_UNIX)"));
  if (Status s = connect_bounded(fd, reinterpret_cast<const sockaddr*>(&sa),
                                 sizeof sa, timeout);
      !s.ok()) {
    ::close(fd);
    return s;
  }
  return SortClient(fd);
}

Status SortClient::write_frame(const std::vector<std::uint8_t>& frame) {
  if (fd_ < 0) {
    return Status::failed_precondition("SortClient: not connected");
  }
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::unavailable(errno_text("send"));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status();
}

Status SortClient::send(const SortRequest& request) {
  return write_frame(wire::encode_request(request));
}

Status SortClient::send_batch(const SortRequest& request) {
  return write_frame(wire::encode_batch_request(request));
}

Status SortClient::send_stats(wire::StatsFormat format) {
  return write_frame(wire::encode_stats_request(format));
}

StatusOr<wire::FrameView> SortClient::next_frame() {
  if (fd_ < 0) {
    return Status::failed_precondition("SortClient: not connected");
  }
  for (;;) {
    StatusOr<std::optional<wire::FrameView>> parsed =
        wire::try_parse_frame(rbuf_);
    if (!parsed.ok()) return parsed.status();
    if (parsed->has_value()) return **parsed;
    if (scratch_.empty()) scratch_.resize(kReadChunk);
    const ssize_t n = ::recv(fd_, scratch_.data(), scratch_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::unavailable(errno_text("recv"));
    }
    if (n == 0) {
      if (rbuf_.empty()) {
        return Status::unavailable("connection closed");
      }
      return Status::data_loss("connection closed mid-frame");
    }
    rbuf_.insert(rbuf_.end(), scratch_.begin(), scratch_.begin() + n);
  }
}

StatusOr<SortResponse> SortClient::receive() {
  StatusOr<wire::FrameView> view = next_frame();
  if (!view.ok()) return view.status();
  if (view->type != wire::FrameType::response &&
      view->type != wire::FrameType::batch_response) {
    return Status::unimplemented("expected a response frame");
  }
  StatusOr<SortResponse> response =
      view->type == wire::FrameType::response
          ? wire::decode_response(view->body)
          : wire::decode_batch_response(view->body);
  rbuf_.erase(rbuf_.begin(),
              rbuf_.begin() + static_cast<std::ptrdiff_t>(view->frame_size));
  return response;
}

StatusOr<wire::StatsReply> SortClient::receive_stats() {
  StatusOr<wire::FrameView> view = next_frame();
  if (!view.ok()) return view.status();
  if (view->type != wire::FrameType::stats_response) {
    return Status::unimplemented("expected a stats response frame");
  }
  StatusOr<wire::StatsReply> reply = wire::decode_stats_response(view->body);
  rbuf_.erase(rbuf_.begin(),
              rbuf_.begin() + static_cast<std::ptrdiff_t>(view->frame_size));
  return reply;
}

StatusOr<wire::StatsReply> SortClient::stats(wire::StatsFormat format) {
  if (Status s = send_stats(format); !s.ok()) return s;
  return receive_stats();
}

StatusOr<SortResponse> SortClient::sort(const SortRequest& request) {
  if (Status s = send(request); !s.ok()) return s;
  return receive();
}

StatusOr<SortResponse> SortClient::sort_batch(const SortRequest& request) {
  if (Status s = send_batch(request); !s.ok()) return s;
  return receive();
}

void SortClient::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace mcsn::net
