// Serve-protocol framing robustness (the hardening the shard coordinator
// leans on): a ServeLoop fed malformed JSON, unknown commands, truncated
// frames, oversized lines, mid-write disconnects, and a seeded storm of
// mutated frames must answer with typed error replies (or cleanly drop the
// connection where the stream cannot resynchronize) and keep serving valid
// requests afterwards — never crash, never wedge. Also pins the socket
// hygiene satellites: the inode is 0600, a live server refuses a bind
// collision, and a stale socket from a crashed server is unlinked and
// rebound. The concurrency tests pin the poll() loop: run_cell requests
// overlap on the engine's workers, a pending wait or a hostile client
// (idle, slowloris, giant line) never holds up a ping, and deadlines and
// the connection cap answer with typed replies — on a ManualClock, so no
// test sleeps through a timeout.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/clock.h"
#include "src/base/json.h"
#include "src/eval/serve.h"
#include "src/suite/workloads.h"

#if !defined(_WIN32)

#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

namespace memsentry {
namespace {

// Raw client connection with send/recv timeouts so a hypothetical server
// wedge fails the test instead of hanging it.
int ConnectRaw(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return fd;
}

// One reply line ("" on EOF or timeout before any newline).
std::string ReadLine(int fd) {
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
    reply.push_back(c);
  }
  return reply;
}

// True once the server has closed its end (recv sees EOF, not a timeout).
bool PeerClosed(int fd) {
  char c = 0;
  return ::recv(fd, &c, 1, 0) == 0;
}

// The reply's typed error code ("" when the reply is empty or untyped).
std::string Code(const std::string& reply) {
  if (reply.empty()) {
    return "";
  }
  auto parsed = json::Parse(reply);
  if (!parsed.ok() || parsed->BoolOr("ok", true)) {
    return "";
  }
  return parsed->StringOr("code", "");
}

json::Value Command(const std::string& cmd) {
  json::Value request = json::Value::Object();
  request.Set("cmd", cmd);
  return request;
}

// A live ServeLoop on a background thread, torn down via the protocol's own
// shutdown command.
class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ::signal(SIGPIPE, SIG_IGN);  // mid-write drops are the point of the test
    socket_path_ = ::testing::TempDir() + "ms_fuzz_" + std::to_string(::getpid()) + ".sock";
    ::unlink(socket_path_.c_str());
    eval::ServeOptions options;
    options.socket_path = socket_path_;
    options.registry = &suite::SuiteRegistry();
    options.jobs = 1;
    options.quiet = true;
    server_ = std::thread([this, options] { serve_status_ = eval::ServeLoop(options); });
    ASSERT_TRUE(WaitForPing()) << "serve socket never came up: " << socket_path_;
  }

  void TearDown() override {
    if (server_.joinable()) {
      json::Value shutdown = json::Value::Object();
      shutdown.Set("cmd", "shutdown");
      auto reply = eval::ServeRequest(socket_path_, shutdown);
      EXPECT_TRUE(reply.ok() && reply->BoolOr("ok", false));
      server_.join();
      EXPECT_EQ(serve_status_, 0);
    }
  }

  bool WaitForPing() {
    json::Value ping = json::Value::Object();
    ping.Set("cmd", "ping");
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto reply = eval::ServeRequest(socket_path_, ping);
      if (reply.ok() && reply->BoolOr("ok", false)) {
        return true;
      }
      ::usleep(50'000);
    }
    return false;
  }

  int Connect() { return ConnectRaw(socket_path_); }

  // Sends raw bytes (best effort — the server may drop us mid-write) and
  // reads one reply line ("" on EOF/timeout). `half_close` shuts the write
  // side first, so a frame without a newline still presents EOF; with
  // `read_reply` false the connection is torn down without waiting (the
  // mid-write vanish case — the server gets no frame terminator at all).
  std::string Exchange(const std::string& bytes, bool half_close = false,
                       bool read_reply = true) {
    const int fd = Connect();
    EXPECT_GE(fd, 0);
    if (fd < 0) {
      return "";
    }
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        break;  // server already dropped us — a legitimate outcome here
      }
      sent += static_cast<size_t>(n);
    }
    if (half_close) {
      ::shutdown(fd, SHUT_WR);  // EOF mid-frame without closing the read side
    }
    const std::string reply = read_reply ? ReadLine(fd) : "";
    ::close(fd);
    return reply;
  }

  std::string socket_path_;
  std::thread server_;
  int serve_status_ = -1;
};

TEST_F(ServeFixture, TypedRejectionsForClassifiableGarbage) {
  EXPECT_EQ(Code(Exchange("this is not json\n")), "bad_json");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"ping\"", /*half_close=*/true)), "truncated_frame")
      << "EOF mid-frame";
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"explode\"}\n")), "unknown_cmd");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"run_cell\"}\n")), "missing_field");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"run_cell\",\"workload\":\"no_such\","
                          "\"cell\":\"x\"}\n")),
            "unknown_workload");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"run_cell\",\"workload\":\"fault_matrix\","
                          "\"cell\":\"no_such_cell\",\"quick\":true,"
                          "\"instructions\":100000}\n")),
            "unknown_cell");
  // submit with no workload resolves the empty name against the registry.
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"submit\"}\n")), "unknown_workload");
  EXPECT_EQ(Code(Exchange("{\"cmd\":\"wait\",\"job\":424242}\n")), "unknown_job");
  // The loop survived every rejection.
  EXPECT_TRUE(WaitForPing());
}

TEST_F(ServeFixture, OversizedLineGetsTypedReplyThenDrop) {
  const int fd = Connect();
  ASSERT_GE(fd, 0);
  // Stream junk past the line cap in chunks; the server stops reading at the
  // cap and replies, so late writes may fail — that is the drop in action.
  const std::string chunk(1u << 20, 'a');
  size_t pushed = 0;
  while (pushed <= eval::kServeMaxLineBytes + chunk.size()) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    pushed += static_cast<size_t>(n);
  }
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
    reply.push_back(c);
  }
  ::close(fd);
  if (!reply.empty()) {  // the reply can be lost if the kernel reset us first
    auto parsed = json::Parse(reply);
    ASSERT_TRUE(parsed.ok()) << reply;
    EXPECT_FALSE(parsed->BoolOr("ok", true));
    EXPECT_EQ(parsed->StringOr("code", ""), "oversized_line");
  }
  EXPECT_TRUE(WaitForPing());
}

TEST_F(ServeFixture, MidWriteDisconnectsDoNotWedgeTheLoop) {
  for (int i = 0; i < 8; ++i) {
    const int fd = Connect();
    ASSERT_GE(fd, 0);
    const std::string partial = "{\"cmd\":\"subm";
    (void)::send(fd, partial.data(), static_cast<size_t>(i) % partial.size() + 1,
                 MSG_NOSIGNAL);
    ::close(fd);  // vanish mid-frame, no EOF marker read
  }
  EXPECT_TRUE(WaitForPing());
}

// Seeded storm: mutate a pool of valid frames (truncation, byte flips,
// splices, raw noise) and throw every variant at the loop. The invariant is
// not any particular reply — it is that the server classifies or drops each
// one and still answers a clean ping afterwards.
TEST_F(ServeFixture, SeededFrameMutationStormSurvives) {
  const std::vector<std::string> pool = {
      "{\"cmd\":\"ping\"}",
      "{\"cmd\":\"workloads\"}",
      "{\"cmd\":\"status\"}",
      "{\"cmd\":\"run_cell\",\"workload\":\"fault_matrix\",\"cell\":\"x\","
      "\"quick\":true,\"instructions\":100000,\"seed\":1,\"attempt\":1}",
  };
  uint64_t rng = 0xC0FFEE;  // deterministic: failures replay exactly
  const auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int iter = 0; iter < 200; ++iter) {
    std::string frame = pool[next() % pool.size()];
    switch (next() % 4) {
      case 0:  // truncate
        frame.resize(next() % (frame.size() + 1));
        break;
      case 1:  // flip bytes
        for (int k = 0; k < 3 && !frame.empty(); ++k) {
          frame[next() % frame.size()] ^= static_cast<char>(1 + next() % 255);
        }
        break;
      case 2:  // splice two frames mid-byte
        frame = frame.substr(0, next() % (frame.size() + 1)) +
                pool[next() % pool.size()];
        break;
      default:  // raw noise
        frame.clear();
        for (size_t k = next() % 64; k > 0; --k) {
          frame.push_back(static_cast<char>(next() % 256));
        }
        break;
    }
    // Strip embedded newlines so one exchange stays one frame, then vary the
    // terminator: newline, EOF half-close, or hard close.
    for (char& c : frame) {
      if (c == '\n') {
        c = ' ';
      }
    }
    const unsigned ending = next() % 3;
    if (ending == 0) {
      (void)Exchange(frame + "\n");
    } else if (ending == 1) {
      (void)Exchange(frame, /*half_close=*/true);
    } else {
      // Vanish without a terminator: nothing to read back, do not wait.
      (void)Exchange(frame, /*half_close=*/false, /*read_reply=*/false);
    }
    if (iter % 50 == 0) {
      ASSERT_TRUE(WaitForPing()) << "loop wedged after iteration " << iter;
    }
  }
  EXPECT_TRUE(WaitForPing());
}

TEST_F(ServeFixture, SocketModeIsOwnerOnlyAndLiveCollisionRefused) {
  struct stat st{};
  ASSERT_EQ(::stat(socket_path_.c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 07777, 0600u);

  // A second loop on the same path must refuse to steal a live socket...
  eval::ServeOptions options;
  options.socket_path = socket_path_;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  options.quiet = true;
  EXPECT_EQ(eval::ServeLoop(options), 1);
  // ...and the original server is untouched.
  EXPECT_TRUE(WaitForPing());
}

TEST(ServeSocket, StaleSocketIsUnlinkedAndRebound) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::string path =
      ::testing::TempDir() + "ms_stale_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  // Leave a dead socket inode behind, as a crashed server would.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);  // no listener ever answers here
  }

  eval::ServeOptions options;
  options.socket_path = path;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  options.quiet = true;
  int status = -1;
  std::thread server([&] { status = eval::ServeLoop(options); });
  json::Value ping = json::Value::Object();
  ping.Set("cmd", "ping");
  bool up = false;
  for (int attempt = 0; attempt < 100 && !up; ++attempt) {
    auto reply = eval::ServeRequest(path, ping);
    up = reply.ok() && reply->BoolOr("ok", false);
    if (!up) {
      ::usleep(50'000);
    }
  }
  EXPECT_TRUE(up) << "stale socket was not reclaimed";
  json::Value shutdown = json::Value::Object();
  shutdown.Set("cmd", "shutdown");
  auto reply = eval::ServeRequest(path, shutdown);
  EXPECT_TRUE(reply.ok() && reply->BoolOr("ok", false));
  server.join();
  EXPECT_EQ(status, 0);
}


// ---------------------------------------------------------------------------
// Concurrency and connection bounds of the poll() loop.

// A ServeLoop with caller-chosen options on a background thread, stopped
// through the protocol's own shutdown command.
class LiveServe {
 public:
  explicit LiveServe(eval::ServeOptions options) : options_(std::move(options)) {
    ::signal(SIGPIPE, SIG_IGN);
    static int instance = 0;
    options_.socket_path = ::testing::TempDir() + "ms_live_" + std::to_string(::getpid()) +
                           "_" + std::to_string(instance++) + ".sock";
    options_.quiet = true;
    ::unlink(options_.socket_path.c_str());
    server_ = std::thread([this] { status_ = eval::ServeLoop(options_); });
  }

  ~LiveServe() {
    auto reply = eval::ServeRequest(path(), Command("shutdown"));
    EXPECT_TRUE(reply.ok() && reply->BoolOr("ok", false));
    server_.join();
    EXPECT_EQ(status_, 0);
  }

  const std::string& path() const { return options_.socket_path; }

  // Pings until the loop answers (it may still be binding).
  bool Up() {
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto reply = eval::ServeRequest(path(), Command("ping"));
      if (reply.ok() && reply->BoolOr("ok", false)) {
        return true;
      }
      ::usleep(20'000);
    }
    return false;
  }

  // Seconds one ping round trip takes; a negative value means it failed.
  double TimedPing() {
    const auto start = std::chrono::steady_clock::now();
    auto reply = eval::ServeRequest(path(), Command("ping"));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return reply.ok() && reply->BoolOr("ok", false) ? seconds : -1;
  }

 private:
  eval::ServeOptions options_;
  std::thread server_;
  int status_ = -1;
};

// Cells that block on state the test controls, to observe what the daemon
// runs at the same time.
struct Blocking {
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;         // rendezvous cells that have started
  bool gate_open = false;  // releases the "gated" cell
};

Blocking& BlockingState() {
  static Blocking* state = new Blocking;
  return *state;
}

void ResetBlocking() {
  Blocking& state = BlockingState();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.arrived = 0;
  state.gate_open = false;
}

void OpenGate() {
  Blocking& state = BlockingState();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.gate_open = true;
  state.cv.notify_all();
}

// Waits up to 5 s for the other rendezvous cell to start: both report
// met=true only when they run at the same time.
json::Value RendezvousCell(const eval::WorkloadOptions&) {
  Blocking& state = BlockingState();
  std::unique_lock<std::mutex> lock(state.mutex);
  ++state.arrived;
  state.cv.notify_all();
  json::Value payload = json::Value::Object();
  payload.Set("met", state.cv.wait_for(lock, std::chrono::seconds(5),
                                       [&] { return state.arrived >= 2; }));
  return payload;
}

// Holds until OpenGate() (or 30 s).
json::Value GatedCell(const eval::WorkloadOptions&) {
  Blocking& state = BlockingState();
  std::unique_lock<std::mutex> lock(state.mutex);
  json::Value payload = json::Value::Object();
  payload.Set("opened", state.cv.wait_for(lock, std::chrono::seconds(30),
                                          [&] { return state.gate_open; }));
  return payload;
}

int AssembleNothing(const eval::WorkloadOptions&, const std::vector<json::Value>&,
                    eval::ReportBuilder&) {
  return 0;
}

// "rendezvous" (cells a and b) and "gated" (cell hold).
const eval::WorkloadRegistry& BlockingRegistry() {
  static const eval::WorkloadRegistry* registry = [] {
    auto* r = new eval::WorkloadRegistry;
    r->Register({.name = "rendezvous",
                 .cells =
                     [](const eval::WorkloadOptions&) {
                       return std::vector<eval::WorkloadCell>{{"a", RendezvousCell},
                                                              {"b", RendezvousCell}};
                     },
                 .assemble = AssembleNothing});
    r->Register({.name = "gated",
                 .cells =
                     [](const eval::WorkloadOptions&) {
                       return std::vector<eval::WorkloadCell>{{"hold", GatedCell}};
                     },
                 .assemble = AssembleNothing});
    return r;
  }();
  return *registry;
}

eval::ServeOptions BlockingServe(int jobs) {
  eval::ServeOptions options;
  options.registry = &BlockingRegistry();
  options.jobs = jobs;
  return options;
}

// Two run_cell requests on two connections overlap on the engine's two
// workers. A loop that served them one after the other would leave the
// first cell waiting out its 5 s rendezvous alone.
TEST(ServeConcurrency, TwoRunCellsOverlap) {
  ResetBlocking();
  LiveServe serve(BlockingServe(/*jobs=*/2));
  ASSERT_TRUE(serve.Up());
  StatusOr<json::Value> replies[2] = {InternalError("not run"), InternalError("not run")};
  std::thread clients[2];
  for (int i = 0; i < 2; ++i) {
    clients[i] = std::thread([&, i] {
      json::Value request = Command("run_cell");
      request.Set("workload", "rendezvous");
      request.Set("cell", i == 0 ? "a" : "b");
      replies[i] = eval::ServeRequest(serve.path(), request);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (const auto& reply : replies) {
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_TRUE(reply->BoolOr("ok", false)) << reply->Dump();
    const json::Value* payload = reply->Find("payload");
    ASSERT_NE(payload, nullptr);
    EXPECT_TRUE(payload->BoolOr("met", false)) << "the two cells did not run concurrently";
    char crc[17];
    std::snprintf(crc, sizeof(crc), "%016llx",
                  static_cast<unsigned long long>(eval::ServeFrameDigest(payload->Dump(0))));
    EXPECT_EQ(reply->StringOr("crc", ""), crc);
  }
}

// A wait on an unfinished job occupies its own connection only: pings are
// answered meanwhile, deadlines skip a connection with a request in flight,
// and the wait completes once the job does.
TEST(ServeConcurrency, PendingWaitDoesNotDelayPing) {
  ResetBlocking();
  base::ManualClock clock;
  eval::ServeOptions options = BlockingServe(/*jobs=*/1);
  options.clock = &clock;
  LiveServe serve(options);
  ASSERT_TRUE(serve.Up());
  json::Value submit = Command("submit");
  submit.Set("workload", "gated");
  auto submitted = eval::ServeRequest(serve.path(), submit);
  ASSERT_TRUE(submitted.ok() && submitted->BoolOr("ok", false));

  const int waiter = ConnectRaw(serve.path());
  ASSERT_GE(waiter, 0);
  json::Value wait = Command("wait");
  wait.Set("job", submitted->NumberOr("job", 0));
  const std::string line = wait.Dump() + "\n";
  ASSERT_EQ(::send(waiter, line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  // The loop reads the wait before it answers a ping that connects later.
  for (int i = 0; i < 5; ++i) {
    const double seconds = serve.TimedPing();
    EXPECT_GE(seconds, 0) << "ping failed while a wait was pending";
    EXPECT_LT(seconds, 1.0) << "ping waited on the pending wait";
  }
  clock.Advance(10 * eval::kServeIdleSeconds);
  EXPECT_GE(serve.TimedPing(), 0);  // wakes the loop past every deadline

  OpenGate();
  auto reply = json::Parse(ReadLine(waiter));
  ::close(waiter);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->BoolOr("ok", false)) << reply->Dump();
  const json::Value* job = reply->Find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->StringOr("state", ""), "done");
}

// The wait reply is a job's last answer: the daemon then drops the job, so
// its table holds only jobs nobody has collected, and a second wait or a
// status for the job gets the typed unknown_job.
TEST(ServeConcurrency, SecondWaitForACollectedJobIsUnknown) {
  ResetBlocking();
  OpenGate();
  LiveServe serve(BlockingServe(/*jobs=*/1));
  ASSERT_TRUE(serve.Up());
  json::Value submit = Command("submit");
  submit.Set("workload", "gated");
  auto submitted = eval::ServeRequest(serve.path(), submit);
  ASSERT_TRUE(submitted.ok() && submitted->BoolOr("ok", false));
  const double job = submitted->NumberOr("job", 0);
  json::Value status = Command("status");
  status.Set("job", job);
  auto before = eval::ServeRequest(serve.path(), status);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->BoolOr("ok", false)) << before->Dump();

  json::Value wait = Command("wait");
  wait.Set("job", job);
  auto first = eval::ServeRequest(serve.path(), wait);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->BoolOr("ok", false)) << first->Dump();
  const json::Value* report = first->Find("job");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->StringOr("state", ""), "done");

  auto second = eval::ServeRequest(serve.path(), wait);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->StringOr("code", ""), "unknown_job") << second->Dump();
  auto after = eval::ServeRequest(serve.path(), status);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->StringOr("code", ""), "unknown_job") << after->Dump();
  auto all = eval::ServeRequest(serve.path(), Command("status"));
  ASSERT_TRUE(all.ok());
  const json::Value* jobs = all->Find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->size(), 0u);
}

// Idle, slowloris and giant-line clients share the loop with a ping prober;
// no ping may take longer than one cell of real work (with a floor for
// scheduler noise on a loaded host). A loop that served connections one at
// a time would never answer while the idle client stays connected.
TEST(ServeConcurrency, HostileClientsDoNotDelayPing) {
  eval::WorkloadOptions cell_options;
  cell_options.experiment.jobs = 1;
  const eval::WorkloadCell cell = suite::FindSuiteWorkload("fig4_callret")->cells(cell_options)[0];
  const auto start = std::chrono::steady_clock::now();
  (void)cell.run(cell_options);
  const double cell_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  eval::ServeOptions options;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  LiveServe serve(options);
  ASSERT_TRUE(serve.Up());

  const int idle = ConnectRaw(serve.path());
  const int slow = ConnectRaw(serve.path());
  const int giant = ConnectRaw(serve.path());
  ASSERT_GE(idle, 0);
  ASSERT_GE(slow, 0);
  ASSERT_GE(giant, 0);
  std::atomic<bool> stop{false};
  std::thread slowloris([&] {
    const std::string frame = "{\"cmd\":\"ping\"}";
    for (size_t i = 0; !stop; i = (i + 1) % frame.size()) {
      (void)::send(slow, frame.data() + i, 1, MSG_NOSIGNAL);  // never a newline
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread streamer([&] {
    const std::string chunk(1u << 20, 'a');
    while (!stop && ::send(giant, chunk.data(), chunk.size(), MSG_NOSIGNAL) > 0) {
    }
  });
  double worst = 0;
  for (int i = 0; i < 20; ++i) {
    const double seconds = serve.TimedPing();
    ASSERT_GE(seconds, 0) << "ping " << i << " failed";
    worst = std::max(worst, seconds);
  }
  stop = true;
  slowloris.join();
  streamer.join();
  EXPECT_LE(worst, std::max(cell_seconds, 0.5))
      << "slowest ping " << worst << " s vs one cell " << cell_seconds << " s";
  for (const int fd : {idle, slow, giant}) {
    ::close(fd);
  }
}

// Deadlines run on the injected clock: a partial line gets a typed
// "deadline" reply and a drop kServeReadSeconds after it started, a silent
// connection kServeIdleSeconds after its last byte.
TEST(ServeDeadlines, IdleAndSlowlorisClientsGetTypedDeadlineThenDrop) {
  static_assert(eval::kServeReadSeconds + 1 < eval::kServeIdleSeconds);
  base::ManualClock clock;
  eval::ServeOptions options;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  options.clock = &clock;
  LiveServe serve(options);
  ASSERT_TRUE(serve.Up());

  const int idle = ConnectRaw(serve.path());
  const int slow = ConnectRaw(serve.path());
  ASSERT_GE(idle, 0);
  ASSERT_GE(slow, 0);
  const std::string partial = "{\"cmd\":\"pi";
  ASSERT_EQ(::send(slow, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  ASSERT_TRUE(serve.Up());  // both accepted, the partial line read

  clock.Advance(eval::kServeReadSeconds + 1);  // past the read deadline only
  ASSERT_TRUE(serve.Up());
  EXPECT_EQ(Code(ReadLine(slow)), "deadline");
  EXPECT_TRUE(PeerClosed(slow));

  clock.Advance(eval::kServeIdleSeconds);  // well past the idle deadline
  ASSERT_TRUE(serve.Up());
  EXPECT_EQ(Code(ReadLine(idle)), "deadline");
  EXPECT_TRUE(PeerClosed(idle));
  ::close(idle);
  ::close(slow);
}

// Past kServeMaxConnections a new client is told "busy" and closed; a
// slot frees as soon as a connection leaves.
TEST(ServeDeadlines, ConnectionCapAnswersBusy) {
  eval::ServeOptions options;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  LiveServe serve(options);
  ASSERT_TRUE(serve.Up());
  std::vector<int> open;
  for (size_t i = 0; i < eval::kServeMaxConnections; ++i) {
    open.push_back(ConnectRaw(serve.path()));
    ASSERT_GE(open.back(), 0);
  }
  const int over = ConnectRaw(serve.path());
  ASSERT_GE(over, 0);
  EXPECT_EQ(Code(ReadLine(over)), "busy");
  EXPECT_TRUE(PeerClosed(over));
  ::close(over);
  ::close(open.back());
  open.pop_back();
  EXPECT_TRUE(serve.Up());
  for (const int fd : open) {
    ::close(fd);
  }
}

}  // namespace
}  // namespace memsentry

#endif  // !_WIN32
