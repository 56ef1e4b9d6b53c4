#include "src/eval/serve.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace memsentry::eval {
namespace {

// One recv per readable connection per loop turn, at most this many bytes:
// a client streaming a giant line shares the loop with everyone else.
constexpr size_t kRecvChunk = 64u << 10;
// Upper bound on one poll() wait, so a ManualClock stepped by a test is
// noticed even when no socket wakes the loop.
constexpr double kMaxPollSeconds = 1.0;
constexpr double kNever = std::numeric_limits<double>::infinity();

json::Value ErrorResponse(const std::string& code, const std::string& message) {
  json::Value response = json::Value::Object();
  response.Set("ok", false);
  response.Set("code", code);
  response.Set("error", message);
  return response;
}

json::Value JobReportJson(const JobReport& report) {
  json::Value out = json::Value::Object();
  out.Set("workload", report.workload);
  out.Set("state", JobStateName(report.state));
  out.Set("status", report.status);
  out.Set("wall_seconds", report.wall_seconds);
  json::Value cells = json::Value::Array();
  for (size_t i = 0; i < report.cell_names.size(); ++i) {
    json::Value cell = json::Value::Object();
    cell.Set("name", report.cell_names[i]);
    cell.Set("seconds", report.cell_seconds[i]);
    cell.Set("restored", static_cast<bool>(report.cell_restored[i]));
    cells.Append(std::move(cell));
  }
  out.Set("cells", std::move(cells));
  return out;
}

// Builds WorkloadOptions from the shared request fields (submit and
// run_cell use the same recipe keys the run memo does).
WorkloadOptions RequestWorkloadOptions(const json::Value& request) {
  WorkloadOptions wo;
  wo.quick = request.BoolOr("quick", false);
  wo.experiment.target_instructions =
      static_cast<uint64_t>(request.NumberOr("instructions", 400'000));
  wo.experiment.seed = static_cast<uint64_t>(
      request.NumberOr("seed", static_cast<double>(wo.experiment.seed)));
  if (const json::Value* extra = request.Find("extra"); extra != nullptr && extra->is_object()) {
    for (const auto& [key, value] : extra->members()) {
      wo.extra[key] = value.is_string() ? value.string_value() : value.Dump();
    }
  }
  return wo;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

// The run_cell reply. Runs on an engine worker.
json::Value RunCellResponse(const WorkloadRegistry& registry, const json::Value& request) {
  const std::string name = request.StringOr("workload", "");
  const std::string cell_name = request.StringOr("cell", "");
  if (name.empty() || cell_name.empty()) {
    return ErrorResponse("missing_field", "run_cell needs workload and cell");
  }
  const Workload* workload = registry.Find(name);
  if (workload == nullptr) {
    return ErrorResponse("unknown_workload", "unknown workload: " + name);
  }
  WorkloadOptions wo = RequestWorkloadOptions(request);
  // Same forcings as CampaignEngine::Submit: the cell owns no parallelism,
  // prints nothing, and must not stage process-global crash contexts.
  wo.experiment.jobs = 1;
  wo.print = false;
  wo.crash_contexts = false;
  json::Value payload;
  try {
    const std::vector<WorkloadCell> cells = workload->cells(wo);
    const auto cell = std::find_if(cells.begin(), cells.end(),
                                   [&](const WorkloadCell& c) { return c.name == cell_name; });
    if (cell == cells.end()) {
      return ErrorResponse("unknown_cell", "unknown cell: " + name + "/" + cell_name);
    }
    payload = cell->run(wo);
  } catch (const std::exception& e) {
    return ErrorResponse("cell_failed", name + "/" + cell_name + ": " + e.what());
  } catch (...) {
    return ErrorResponse("cell_failed", name + "/" + cell_name + ": unknown exception");
  }
  json::Value response = json::Value::Object();
  response.Set("ok", true);
  response.Set("crc", Hex64(ServeFrameDigest(payload.Dump(0))));
  response.Set("payload", std::move(payload));
  return response;
}

// The wait reply for a finished job.
json::Value WaitResponse(const JobReport& report) {
  json::Value response = json::Value::Object();
  response.Set("ok", true);
  response.Set("job", JobReportJson(report));
  response.Set("metrics", report.report.metrics());
  return response;
}

// The commands answered inline on the I/O thread. Sets *shutdown when the
// client asked the loop to exit (acknowledged before the loop tears down).
json::Value Dispatch(const WorkloadRegistry& registry, CampaignEngine& engine,
                     const std::string& cmd, const json::Value& request, bool* shutdown) {
  json::Value response = json::Value::Object();
  if (cmd == "ping") {
    response.Set("ok", true);
    return response;
  }
  if (cmd == "shutdown") {
    *shutdown = true;
    response.Set("ok", true);
    return response;
  }
  if (cmd == "workloads") {
    response.Set("ok", true);
    json::Value names = json::Value::Array();
    for (const Workload& workload : registry.workloads()) {
      names.Append(workload.name);
    }
    response.Set("workloads", std::move(names));
    return response;
  }
  if (cmd == "submit") {
    const std::string name = request.StringOr("workload", "");
    const uint64_t id = engine.Submit(name, RequestWorkloadOptions(request));
    if (id == 0) {
      return ErrorResponse("unknown_workload", "unknown workload: " + name);
    }
    response.Set("ok", true);
    response.Set("job", id);
    return response;
  }
  if (cmd == "status") {
    if (const json::Value* job = request.Find("job")) {
      json::Value status = engine.JobStatus(static_cast<uint64_t>(job->number_value()));
      if (status.is_null()) {
        return ErrorResponse("unknown_job", "unknown job");
      }
      response.Set("ok", true);
      response.Set("job", std::move(status));
    } else {
      response.Set("ok", true);
      response.Set("jobs", engine.AllJobStatus());
    }
    return response;
  }
  if (cmd == "cancel") {
    const json::Value* job = request.Find("job");
    if (job == nullptr) {
      return ErrorResponse("missing_field", "cancel needs a job id");
    }
    response.Set("ok", true);
    response.Set("cancelled", engine.Cancel(static_cast<uint64_t>(job->number_value())));
    return response;
  }
  return ErrorResponse("unknown_cmd", "unknown cmd: " + cmd);
}

// Deterministically corrupts a serialized reply in place (garble chaos).
// The flips are keyed off the frame's own digest, avoid producing '\n'
// (which would split the frame rather than corrupt it), and always change
// at least the first byte, so a JSON parse or crc check on the other side
// is guaranteed to notice.
void GarbleFrame(std::string& frame, uint64_t key) {
  if (frame.empty()) {
    return;
  }
  for (int i = 0; i < 3; ++i) {
    const size_t pos = (key >> (i * 16)) % frame.size();
    char b = static_cast<char>(frame[pos] ^ 0x5A);
    if (b == '\n') {
      b = static_cast<char>(b ^ 0x01);
    }
    frame[pos] = b;
  }
  if (frame[0] == '{') {
    frame[0] = '!';
  }
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Replies finished on engine workers, handed to the I/O thread: a locked
// queue plus a self-pipe whose read end the loop polls.
class ReplyQueue {
 public:
  ReplyQueue() {
    int fds[2];
    if (::pipe(fds) == 0) {
      read_fd_ = fds[0];
      write_fd_ = fds[1];
      SetNonBlocking(read_fd_);
      SetNonBlocking(write_fd_);
    }
  }
  ~ReplyQueue() {
    if (read_fd_ >= 0) {
      ::close(read_fd_);
      ::close(write_fd_);
    }
  }
  ReplyQueue(const ReplyQueue&) = delete;
  ReplyQueue& operator=(const ReplyQueue&) = delete;

  bool ok() const { return read_fd_ >= 0; }
  int fd() const { return read_fd_; }

  void Push(uint64_t conn, std::string reply) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      replies_.emplace_back(conn, std::move(reply));
    }
    // A full pipe already holds a pending wakeup; the byte can be dropped.
    const char wake = 1;
    (void)!::write(write_fd_, &wake, 1);
  }

  // Empties the pipe before taking the queue, so a Push racing with the
  // drain always leaves either its reply in this batch or a byte behind.
  std::vector<std::pair<uint64_t, std::string>> Drain() {
    char sink[256];
    while (::read(read_fd_, sink, sizeof(sink)) > 0) {
    }
    std::vector<std::pair<uint64_t, std::string>> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.swap(replies_);
    return out;
  }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  std::mutex mutex_;
  std::vector<std::pair<uint64_t, std::string>> replies_;
};

// The single-threaded poll() loop over the listener, the reply pipe and
// every client connection.
class Server {
 public:
  Server(const ServeOptions& options, int listener, CampaignEngine& engine, ReplyQueue& replies)
      : options_(options),
        clock_(options.clock != nullptr ? *options.clock : base::Clock::Real()),
        listener_(listener),
        engine_(engine),
        replies_(replies),
        chunk_(kRecvChunk) {}

  ~Server() {
    for (auto& [id, conn] : conns_) {
      if (conn.fd >= 0) {
        ::close(conn.fd);
      }
    }
  }

  // Serves until a shutdown request has been answered (returns 0) or the
  // listener fails (returns 1).
  int Run();

 private:
  struct Conn {
    int fd = -1;
    LineBuffer rx;
    std::string tx;             // reply bytes not yet accepted by the socket
    bool busy = false;          // a request is in flight; later lines wait
    bool closing = false;       // flush tx, then close; read nothing more
    bool ends_loop = false;     // carries the shutdown reply
    std::string chaos;          // chaos mode of the in-flight run_cell
    std::string held;           // chaos hang: the reply, released at release_at
    double release_at = -1;     // < 0: no reply held
    double last_active = 0;     // last byte in or out
    double line_start = 0;      // arrival of the buffered partial line
  };

  void Accept();
  void Read(uint64_t id, Conn& conn);
  void Pump(uint64_t id, Conn& conn);
  void Handle(uint64_t id, Conn& conn, const std::string& line);
  void Deliver(uint64_t id, std::string reply);
  void Reply(Conn& conn, const std::string& frame);
  void Fail(Conn& conn, const std::string& code, const std::string& message);
  void Flush(Conn& conn);
  void Close(Conn& conn);
  double Timers(uint64_t id, Conn& conn);  // fires what is due; returns the next due time

  const ServeOptions& options_;
  const base::Clock& clock_;
  int listener_;
  CampaignEngine& engine_;
  ReplyQueue& replies_;
  std::map<uint64_t, Conn> conns_;
  uint64_t next_id_ = 1;
  size_t open_ = 0;
  double now_ = 0;
  bool stop_ = false;
  int exit_status_ = 0;
  std::vector<char> chunk_;
};

int Server::Run() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;
  while (!stop_) {
    now_ = clock_.Now();
    double wake = now_ + kMaxPollSeconds;
    for (auto& [id, conn] : conns_) {
      wake = std::min(wake, Timers(id, conn));
    }
    std::erase_if(conns_, [](const auto& entry) { return entry.second.fd < 0; });
    if (stop_) {
      break;
    }

    fds.clear();
    ids.clear();
    fds.push_back(pollfd{listener_, POLLIN, 0});
    fds.push_back(pollfd{replies_.fd(), POLLIN, 0});
    for (const auto& [id, conn] : conns_) {
      // Backpressure: a connection is read only while it has nothing in
      // flight and nothing unsent, so each carries one request at a time.
      const bool readable = !conn.busy && !conn.closing && conn.tx.empty();
      fds.push_back(pollfd{conn.fd, static_cast<short>((readable ? POLLIN : 0) |
                                                       (conn.tx.empty() ? 0 : POLLOUT)),
                           0});
      ids.push_back(id);
    }
    const int timeout_ms =
        static_cast<int>(std::ceil(std::clamp(wake - now_, 0.0, kMaxPollSeconds) * 1000.0));
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::fprintf(stderr, "serve: poll: %s\n", std::strerror(errno));
      return 1;
    }
    now_ = clock_.Now();
    if (fds[1].revents != 0) {
      for (auto& [id, reply] : replies_.Drain()) {
        Deliver(id, std::move(reply));
      }
    }
    for (size_t i = 2; i < fds.size() && !stop_; ++i) {
      const auto it = conns_.find(ids[i - 2]);
      if (fds[i].revents == 0 || it == conns_.end() || it->second.fd != fds[i].fd) {
        continue;
      }
      Conn& conn = it->second;
      if ((fds[i].revents & POLLOUT) != 0) {
        Flush(conn);
      }
      if (conn.fd < 0) {
        continue;
      }
      if ((fds[i].events & POLLIN) != 0 &&
          (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        Read(it->first, conn);
      } else if ((fds[i].revents & (POLLHUP | POLLERR)) != 0) {
        Close(conn);  // the peer is gone; whatever it was owed is dropped
      }
    }
    // Accept after the connection events, so slots freed by clients that
    // left are counted free before new clients are weighed against the cap.
    if (fds[0].revents != 0 && !stop_) {
      Accept();
    }
  }
  return exit_status_;
}

void Server::Accept() {
  for (;;) {
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        std::fprintf(stderr, "serve: accept: %s\n", std::strerror(errno));
        exit_status_ = 1;
        stop_ = true;
      }
      return;
    }
    if (open_ >= kServeMaxConnections || !SetNonBlocking(fd)) {
      const std::string frame =
          ErrorResponse("busy", "connection limit (" +
                                    std::to_string(kServeMaxConnections) + ") reached")
              .Dump() +
          "\n";
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    Conn& conn = conns_[next_id_++];
    conn.fd = fd;
    conn.last_active = now_;
    ++open_;
  }
}

void Server::Read(uint64_t id, Conn& conn) {
  const ssize_t n = ::recv(conn.fd, chunk_.data(), chunk_.size(), 0);
  if (n < 0) {
    if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
      Close(conn);
    }
    return;
  }
  if (n == 0) {
    // EOF. A partial line left behind is a frame the peer never finished.
    if (conn.rx.pending() > 0) {
      Fail(conn, "truncated_frame",
           "truncated frame: peer closed mid-line after " + std::to_string(conn.rx.pending()) +
               " bytes");
    } else {
      Close(conn);
    }
    return;
  }
  if (conn.rx.pending() == 0) {
    conn.line_start = now_;
  }
  conn.rx.Append(chunk_.data(), static_cast<size_t>(n));
  conn.last_active = now_;
  Pump(id, conn);
}

// Answers the buffered complete lines in order, stopping at the first one
// whose reply is asynchronous.
void Server::Pump(uint64_t id, Conn& conn) {
  std::string line;
  while (conn.fd >= 0 && !conn.busy && !conn.closing) {
    switch (conn.rx.Pop(&line)) {
      case LineBuffer::Next::kPartial:
        return;
      case LineBuffer::Next::kOversized:
        // No resynchronization point in the stream: reply, then drop.
        Fail(conn, "oversized_line",
             "line exceeds " + std::to_string(kServeMaxLineBytes) + " bytes");
        return;
      case LineBuffer::Next::kLine:
        conn.line_start = now_;
        Handle(id, conn, line);
        break;
    }
  }
}

void Server::Handle(uint64_t id, Conn& conn, const std::string& line) {
  StatusOr<json::Value> request = json::Parse(line);
  if (!request.ok()) {
    Reply(conn, ErrorResponse("bad_json", "bad request: " + request.status().message()).Dump());
    return;
  }
  const std::string cmd = request->StringOr("cmd", "");
  if (!options_.quiet) {
    std::fprintf(stderr, "serve: %s\n", request->StringOr("cmd", "?").c_str());
  }
  if (cmd == "run_cell") {
    // Chaos harness: misbehave deterministically on first-attempt run_cell
    // replies (applied in Deliver, once the cell has run).
    if (options_.chaos.any()) {
      conn.chaos = ChaosDecision(options_.chaos, request->StringOr("workload", ""),
                                 request->StringOr("cell", ""),
                                 static_cast<uint64_t>(request->NumberOr("attempt", 1)));
    }
    conn.busy = true;
    engine_.Post([registry = options_.registry, &replies = replies_, id,
                  request = std::move(request).value()] {
      replies.Push(id, RunCellResponse(*registry, request).Dump());
    });
    return;
  }
  if (cmd == "wait") {
    const json::Value* job = request->Find("job");
    if (job == nullptr) {
      Reply(conn, ErrorResponse("missing_field", "wait needs a job id").Dump());
      return;
    }
    conn.busy = true;
    // The wait reply is the job's last answer: the job is dropped once it is
    // built, so the daemon's job table holds only jobs nobody has collected.
    const uint64_t job_id = static_cast<uint64_t>(job->number_value());
    const bool known = engine_.OnJobDone(
        job_id, [&engine = engine_, &replies = replies_, id, job_id](const JobReport& report) {
          std::string reply = WaitResponse(report).Dump();
          engine.Forget(job_id);
          replies.Push(id, std::move(reply));
        });
    if (!known) {
      conn.busy = false;
      Reply(conn, ErrorResponse("unknown_job", "unknown job").Dump());
    }
    return;
  }
  bool shutdown = false;
  const std::string reply = Dispatch(*options_.registry, engine_, cmd, *request, &shutdown).Dump();
  if (shutdown) {
    conn.closing = true;
    conn.ends_loop = true;
  }
  Reply(conn, reply);
}

void Server::Deliver(uint64_t id, std::string reply) {
  const auto it = conns_.find(id);
  if (it == conns_.end() || it->second.fd < 0) {
    return;  // the client left while its request ran
  }
  Conn& conn = it->second;
  const std::string chaos = std::exchange(conn.chaos, "");
  if (chaos == "kill") {
    // A torn attempt: work done, result lost — exactly what re-dispatch
    // idempotency must absorb.
    if (!options_.quiet) {
      std::fprintf(stderr, "serve: chaos kill\n");
    }
    ::raise(SIGKILL);
  } else if (chaos == "hang") {
    // Only this reply waits; the loop keeps serving everyone else.
    if (!options_.quiet) {
      std::fprintf(stderr, "serve: chaos hang %ums\n", options_.chaos.hang_ms);
    }
    conn.held = std::move(reply);
    conn.release_at = now_ + options_.chaos.hang_ms / 1000.0;
    return;
  } else if (chaos == "garble") {
    GarbleFrame(reply, ServeFrameDigest(reply) ^ options_.chaos.seed);
    if (!options_.quiet) {
      std::fprintf(stderr, "serve: chaos garble\n");
    }
    conn.busy = false;
    conn.closing = true;  // drop the connection behind the corrupted frame
    Reply(conn, reply);
    return;
  }
  conn.busy = false;
  Reply(conn, reply);
  Pump(id, conn);
}

void Server::Reply(Conn& conn, const std::string& frame) {
  conn.tx += frame;
  conn.tx.push_back('\n');
  Flush(conn);
}

// A typed reply, then a drop: the stream has no point to resume from.
void Server::Fail(Conn& conn, const std::string& code, const std::string& message) {
  conn.closing = true;
  Reply(conn, ErrorResponse(code, message).Dump());
}

void Server::Flush(Conn& conn) {
  size_t sent = 0;
  while (sent < conn.tx.size()) {
    const ssize_t n = ::send(conn.fd, conn.tx.data() + sent, conn.tx.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      conn.last_active = now_;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      Close(conn);
      return;
    }
  }
  conn.tx.erase(0, sent);
  if (conn.tx.empty() && conn.closing) {
    Close(conn);
  }
}

void Server::Close(Conn& conn) {
  if (conn.fd < 0) {
    return;
  }
  ::close(conn.fd);
  conn.fd = -1;
  --open_;
  if (conn.ends_loop) {
    stop_ = true;
  }
}

double Server::Timers(uint64_t id, Conn& conn) {
  if (conn.fd < 0) {
    return kNever;
  }
  if (conn.release_at >= 0) {
    if (now_ < conn.release_at) {
      return conn.release_at;
    }
    conn.release_at = -1;
    conn.busy = false;
    Reply(conn, std::exchange(conn.held, ""));
    Pump(id, conn);
    if (conn.fd < 0) {
      return kNever;
    }
  }
  if (conn.busy) {
    return kNever;  // a cell or job is running; no deadline applies
  }
  if (!conn.tx.empty()) {
    // The peer stopped reading its replies; nothing more can be said to it.
    const double due = conn.last_active + kServeIdleSeconds;
    if (now_ >= due) {
      Close(conn);
      return kNever;
    }
    return due;
  }
  if (conn.rx.pending() > 0) {
    const double due = conn.line_start + kServeReadSeconds;
    if (now_ >= due) {
      Fail(conn, "deadline",
           "no end of line within " + std::to_string(static_cast<int>(kServeReadSeconds)) + " s");
      return kNever;
    }
    return due;
  }
  const double due = conn.last_active + kServeIdleSeconds;
  if (now_ >= due) {
    Fail(conn, "deadline", "idle for " + std::to_string(static_cast<int>(kServeIdleSeconds)) + " s");
    return kNever;
  }
  return due;
}

}  // namespace

void LineBuffer::Append(const char* data, size_t size) {
  if (start_ == buf_.size()) {
    Clear();
  } else if (start_ >= kRecvChunk && start_ * 2 >= buf_.size()) {
    buf_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
  }
  buf_.append(data, size);
}

LineBuffer::Next LineBuffer::Pop(std::string* line) {
  const size_t newline = buf_.find('\n', std::max(start_, scanned_));
  if (newline == std::string::npos) {
    scanned_ = buf_.size();
    return pending() > kServeMaxLineBytes ? Next::kOversized : Next::kPartial;
  }
  if (newline - start_ > kServeMaxLineBytes) {
    return Next::kOversized;
  }
  line->assign(buf_, start_, newline - start_);
  start_ = newline + 1;
  scanned_ = start_;
  return Next::kLine;
}

void LineBuffer::Clear() {
  buf_.clear();
  start_ = 0;
  scanned_ = 0;
}

Status SendLine(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return InternalError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return OkStatus();
}

StatusOr<std::string> RecvLine(int fd, LineBuffer& buffer) {
  std::string line;
  char chunk[kRecvChunk];
  for (;;) {
    switch (buffer.Pop(&line)) {
      case LineBuffer::Next::kLine:
        return line;
      case LineBuffer::Next::kOversized:
        return ResourceExhausted("line exceeds " + std::to_string(kServeMaxLineBytes) +
                                 " bytes");
      case LineBuffer::Next::kPartial:
        break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return InternalError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (buffer.pending() == 0) {
        return NotFound("connection closed");
      }
      return InvalidArgument("truncated frame: peer closed mid-line after " +
                             std::to_string(buffer.pending()) + " bytes");
    }
    buffer.Append(chunk, static_cast<size_t>(n));
  }
}

uint64_t ServeFrameDigest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string ServeChaos::Format() const {
  if (!any()) {
    return "";
  }
  std::string out;
  const auto add = [&out](const char* mode) {
    if (!out.empty()) {
      out.push_back(',');
    }
    out += mode;
  };
  if (kill) add("kill");
  if (hang) add("hang");
  if (garble) add("garble");
  out += ":seed=" + std::to_string(seed);
  out += ":one_in=" + std::to_string(one_in);
  out += ":hang_ms=" + std::to_string(hang_ms);
  return out;
}

StatusOr<ServeChaos> ParseChaosSpec(const std::string& spec) {
  ServeChaos chaos;
  if (spec.empty()) {
    return InvalidArgument("empty chaos spec");
  }
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon == std::string::npos ? colon : colon - start));
    if (colon == std::string::npos) {
      break;
    }
    start = colon + 1;
  }
  // First segment: comma-separated mode list.
  const std::string& modes = parts[0];
  start = 0;
  while (start <= modes.size()) {
    const size_t comma = modes.find(',', start);
    const std::string mode =
        modes.substr(start, comma == std::string::npos ? comma : comma - start);
    if (mode == "kill") {
      chaos.kill = true;
    } else if (mode == "hang") {
      chaos.hang = true;
    } else if (mode == "garble") {
      chaos.garble = true;
    } else {
      return InvalidArgument("unknown chaos mode: " + mode);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  for (size_t i = 1; i < parts.size(); ++i) {
    const size_t eq = parts[i].find('=');
    if (eq == std::string::npos) {
      return InvalidArgument("chaos option needs key=value: " + parts[i]);
    }
    const std::string key = parts[i].substr(0, eq);
    const std::string value = parts[i].substr(eq + 1);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return InvalidArgument("chaos option " + key + " needs a number, got: " + value);
    }
    if (key == "seed") {
      chaos.seed = parsed;
    } else if (key == "one_in") {
      if (parsed == 0) {
        return InvalidArgument("chaos one_in must be >= 1");
      }
      chaos.one_in = static_cast<uint32_t>(parsed);
    } else if (key == "hang_ms") {
      chaos.hang_ms = static_cast<uint32_t>(parsed);
    } else {
      return InvalidArgument("unknown chaos option: " + key);
    }
  }
  if (!chaos.any()) {
    return InvalidArgument("chaos spec enables no mode: " + spec);
  }
  return chaos;
}

std::string ChaosDecision(const ServeChaos& chaos, const std::string& workload,
                          const std::string& cell, uint64_t attempt) {
  if (!chaos.any() || attempt >= 2) {
    return "";  // re-dispatched attempts always run clean: progress is guaranteed
  }
  const std::string key = std::to_string(chaos.seed) + "|" + workload + "|" + cell + "|" +
                          std::to_string(attempt);
  const uint64_t h = ServeFrameDigest(key);
  if (h % chaos.one_in != 0) {
    return "";
  }
  std::vector<const char*> enabled;
  if (chaos.kill) enabled.push_back("kill");
  if (chaos.hang) enabled.push_back("hang");
  if (chaos.garble) enabled.push_back("garble");
  return enabled[(h / chaos.one_in) % enabled.size()];
}

int ServeLoop(const ServeOptions& options) {
  if (options.registry == nullptr || options.socket_path.empty()) {
    std::fprintf(stderr, "serve: registry and socket path are required\n");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "serve: socket path too long: %s\n", options.socket_path.c_str());
    return 1;
  }
  std::strncpy(addr.sun_path, options.socket_path.c_str(), sizeof(addr.sun_path) - 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  // Bind-collision semantics: a path that still accepts connections belongs
  // to a live server — refuse to steal it. A path nobody answers on is a
  // stale socket from a crashed server; unlink and rebind.
  struct stat st{};
  if (::lstat(options.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      std::fprintf(stderr, "serve: %s exists and is not a socket\n", options.socket_path.c_str());
      ::close(listener);
      return 1;
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool live =
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
      ::close(probe);
      if (live) {
        std::fprintf(stderr, "serve: %s is already served by a live server\n",
                     options.socket_path.c_str());
        ::close(listener);
        return 1;
      }
    }
    ::unlink(options.socket_path.c_str());
  }
  // The socket carries submit/run_cell for a trusted local caller only:
  // create the inode 0600 (umask for the bind itself, chmod to pin the mode
  // regardless of the inherited mask).
  const mode_t saved_umask = ::umask(0177);
  const bool bound =
      ::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::umask(saved_umask);
  if (!bound || ::listen(listener, SOMAXCONN) != 0 || !SetNonBlocking(listener)) {
    std::fprintf(stderr, "serve: bind/listen %s: %s\n", options.socket_path.c_str(),
                 std::strerror(errno));
    ::close(listener);
    return 1;
  }
  ::chmod(options.socket_path.c_str(), 0600);

  // Declared before the engine: the engine's destructor drains posted cells,
  // whose replies still land here.
  ReplyQueue replies;
  if (!replies.ok()) {
    std::fprintf(stderr, "serve: pipe: %s\n", std::strerror(errno));
    ::close(listener);
    ::unlink(options.socket_path.c_str());
    return 1;
  }
  EngineOptions engine_options;
  engine_options.jobs = options.jobs;
  CampaignEngine engine(options.registry, engine_options);
  if (!options.quiet) {
    std::fprintf(stderr, "serve: listening on %s (%d workers, %zu workloads)%s\n",
                 options.socket_path.c_str(), engine.jobs(),
                 options.registry->workloads().size(),
                 options.chaos.any() ? (" chaos=" + options.chaos.Format()).c_str() : "");
  }

  int exit_status;
  {
    Server server(options, listener, engine, replies);
    exit_status = server.Run();
  }
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  return exit_status;
}

StatusOr<json::Value> ServeRequest(const std::string& socket_path, const json::Value& request) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgument("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("connect " + socket_path + ": " + err);
  }
  Status sent = SendLine(fd, request.Dump());
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  LineBuffer buffer;
  StatusOr<std::string> line = RecvLine(fd, buffer);
  ::close(fd);
  if (!line.ok()) {
    return line.status();
  }
  return json::Parse(*line);
}

}  // namespace memsentry::eval
