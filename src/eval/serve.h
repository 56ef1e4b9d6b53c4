// `memsentry_cli serve` — a resident CampaignEngine behind a local UNIX
// socket, so the server workload, campaign sweeps, and the shard
// coordinator (src/eval/coordinator.h) can be driven without paying one
// batch process per run. Newline-delimited JSON request/response protocol,
// one object per line:
//
//   {"cmd":"ping"}                         -> {"ok":true}
//   {"cmd":"workloads"}                    -> {"ok":true,"workloads":[...]}
//   {"cmd":"submit","workload":"fig4_callret",
//    "quick":true,"instructions":100000,   -> {"ok":true,"job":1}
//    "extra":{"campaigns":"160"}}
//   {"cmd":"status"}                       -> {"ok":true,"jobs":[...]}
//   {"cmd":"status","job":1}               -> {"ok":true,"job":{...}}
//   {"cmd":"cancel","job":1}               -> {"ok":true,"cancelled":true}
//   {"cmd":"wait","job":1}                 -> {"ok":true,"job":{...},"metrics":{...}}
//   {"cmd":"run_cell","workload":"fig3_address","cell":"mpk/hot",
//    "quick":true,"instructions":100000,   -> {"ok":true,"payload":...,
//    "seed":123,"extra":{},"attempt":1}        "crc":"<fnv1a hex of payload>"}
//   {"cmd":"shutdown"}                     -> {"ok":true}   (loop exits)
//
// Error replies are typed: {"ok":false,"code":"bad_json","error":"..."} with
// codes bad_json / oversized_line / truncated_frame / deadline / busy /
// unknown_cmd / unknown_workload / unknown_cell / unknown_job /
// missing_field / cell_failed. Malformed JSON and unknown commands get a
// typed reply on the same connection; frames the server cannot
// resynchronize after (oversized lines, truncated frames cut off by a
// client disconnect) get a typed reply and a connection drop. Neither ever
// crashes or wedges the loop — the coordinator leans on this to retry.
//
// One I/O thread serves every connection from a single poll() loop with
// buffered, non-blocking reads and writes:
//   - ping, workloads, status, submit, cancel and shutdown are answered
//     inline on the I/O thread;
//   - run_cell runs on one of the engine's workers (CampaignEngine::Post),
//     so at most --jobs cells run at once, shared with submitted jobs;
//   - wait completes when its job does (CampaignEngine::OnJobDone); the
//     wait reply is the job's last answer, after which the job is dropped
//     and a later status or wait for it gets unknown_job.
// Workers hand finished replies back through a self-pipe the loop polls,
// so a connection waiting on a cell or a job never delays another
// connection's ping. Each connection carries one request at a time: lines
// pipelined behind an in-flight request are answered in order.
//
// Cells are pure functions of their recipe (campaign_engine.h), so a re-run
// after a torn attempt is safe and bit-identical. The run_cell reply
// carries an FNV-1a digest of the compact payload dump so the caller can
// reject corrupted-but-parseable frames.
//
// Connections are bounded: one with no request in flight gets a typed
// "deadline" reply and is dropped after kServeIdleSeconds of silence, or
// kServeReadSeconds after the first byte of a line that never ends
// (slowloris); past kServeMaxConnections a new client gets a typed "busy"
// reply and is closed. The socket inode is created with mode 0600; a bind
// collision against a live server fails fast, while a stale socket left by
// a crashed server is unlinked and rebound.
#ifndef MEMSENTRY_SRC_EVAL_SERVE_H_
#define MEMSENTRY_SRC_EVAL_SERVE_H_

#include <cstdint>
#include <string>

#include "src/base/clock.h"
#include "src/base/json.h"
#include "src/base/status.h"
#include "src/eval/campaign_engine.h"

namespace memsentry::eval {

// Deterministic fault injection for the chaos harness (ISSUE: --chaos=...).
// Whether a given run_cell request misbehaves is a pure function of
// (seed, workload, cell, attempt): the coordinator bumps `attempt` on every
// re-dispatch and attempts >= 2 are never chaosed, so every cell terminates
// and the whole chaos schedule replays bit-identically from the seed.
struct ServeChaos {
  bool kill = false;    // SIGKILL the worker after running the cell, before the reply
  bool hang = false;    // hold that reply hang_ms (coordinator sees a dead lease)
  bool garble = false;  // corrupt the serialized reply frame, then drop the connection
  uint64_t seed = 0;
  uint32_t one_in = 3;       // a first-attempt cell draws chaos with probability 1/one_in
  uint32_t hang_ms = 30000;  // must exceed the coordinator's lease to be observable

  bool any() const { return kill || hang || garble; }
  // Round-trips through ParseChaosSpec; empty when !any().
  std::string Format() const;
};

// Parses "kill,hang,garble:seed=S[:one_in=N][:hang_ms=N]" (any non-empty
// subset of modes, options in any order after the mode list).
StatusOr<ServeChaos> ParseChaosSpec(const std::string& spec);

// Which chaos mode (if any) fires for this request. "" = run clean.
// Exposed so tests can pin the schedule without a live server.
std::string ChaosDecision(const ServeChaos& chaos, const std::string& workload,
                          const std::string& cell, uint64_t attempt);

// FNV-1a over the bytes — the digest run_cell replies carry (as %016llx hex,
// since JSON numbers are doubles and cannot round-trip 64 bits).
uint64_t ServeFrameDigest(const std::string& bytes);

// Request lines beyond this are rejected ("oversized_line" + connection
// drop); generous enough for any legitimate payload in the suite.
inline constexpr size_t kServeMaxLineBytes = 64u << 20;

// Per-connection bounds (see the header comment). A connection with no
// request in flight is dropped after kServeIdleSeconds of silence, or
// kServeReadSeconds after the first byte of a line that never ends. The
// idle bound exceeds the coordinator's default 20 s lease, so a worker
// connection left idle while sibling workers finish their cells stays up.
inline constexpr double kServeIdleSeconds = 60;
inline constexpr double kServeReadSeconds = 10;
inline constexpr size_t kServeMaxConnections = 64;

// Newline framing shared by the serve loop, its client and the shard
// coordinator: bytes go in as they arrive, complete lines come out. The
// line cap is checked as each chunk lands, so a peer streaming one endless
// line is refused once it passes kServeMaxLineBytes instead of being
// buffered without bound.
class LineBuffer {
 public:
  enum class Next { kLine, kPartial, kOversized };

  void Append(const char* data, size_t size);
  // kLine moves the next complete line (without its '\n') into *line;
  // kPartial means no newline is buffered yet; kOversized means the next
  // line is (or is growing) past the cap — the stream cannot resync.
  Next Pop(std::string* line);
  // Buffered bytes not yet returned as lines (a partial line, if any).
  size_t pending() const { return buf_.size() - start_; }
  void Clear();

 private:
  std::string buf_;
  size_t start_ = 0;    // first unconsumed byte
  size_t scanned_ = 0;  // bytes before this hold no '\n' past start_
};

// Writes `line` plus '\n' to a blocking socket. MSG_NOSIGNAL keeps a
// mid-write peer disconnect an EPIPE error instead of a process-killing
// SIGPIPE — load-bearing under the chaos harness, where the coordinator
// abandons workers mid-exchange as a matter of course.
Status SendLine(int fd, const std::string& line);

// Reads one line from a blocking socket through `buffer` (which keeps any
// bytes past the newline for the next call). Error taxonomy:
//   kNotFound           clean EOF before any bytes — peer is done
//   kInvalidArgument    EOF mid-line — truncated frame, peer died mid-write
//   kResourceExhausted  line exceeded kServeMaxLineBytes
//   kInternal           recv() error
StatusOr<std::string> RecvLine(int fd, LineBuffer& buffer);

struct ServeOptions {
  std::string socket_path;
  const WorkloadRegistry* registry = nullptr;
  int jobs = 0;        // engine workers; <= 0 = hardware_concurrency
  bool quiet = false;  // suppress the per-request log lines
  ServeChaos chaos;    // inert by default
  // Time source for the deadlines and the chaos hang timer; null = real.
  const base::Clock* clock = nullptr;
};

// Binds the socket and serves requests until a shutdown command (returns 0)
// or a socket-level failure (returns 1). The socket file is unlinked on the
// way out.
int ServeLoop(const ServeOptions& options);

// Client half: connect, send `request` as one line, read one response line.
StatusOr<json::Value> ServeRequest(const std::string& socket_path,
                                   const json::Value& request);

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_SERVE_H_
