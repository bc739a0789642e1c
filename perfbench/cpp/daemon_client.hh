/**
 * @file
 * The sweeps' side of dtexld's wire protocol: a daemon child process on
 * a private state directory, its persistent connections, and one
 * closed-loop phase of submissions.
 *
 * The client is a closed loop: kClients submitting connections, each
 * of which submits one job and waits until the job's job_complete
 * arrives on the one subscribe connection before it submits the next.
 * Results (the status of every job) are fetched once the loop is over.
 * Every connection is held for the whole run: dtexld keeps one thread
 * per connection until it drains, so a client that reconnects per
 * request would be a different workload (see README.md, "Known
 * defects").
 */

#ifndef PERFBENCH_DAEMON_CLIENT_HH
#define PERFBENCH_DAEMON_CLIENT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/wire.hh"

namespace perfbench {

constexpr unsigned kClients = 3;

/** One persistent client connection with '\n'-framed reads. */
class Conn
{
  public:
    Conn() = default;
    ~Conn() { close(); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool open(const std::string &path);
    void close();
    bool send(const std::string &line);
    /** Read what the socket has (one read); false on EOF or error. */
    bool fill();
    /** Pop the next complete buffered line; false when there is none. */
    bool nextLine(std::string &line);
    /** Next line, waiting at most @p timeoutMs; false on EOF/timeout. */
    bool readLine(std::string &line, int timeoutMs);
    int fd() const { return fd_; }
    /** Send one request and read its one-line response. */
    bool call(const std::string &req, dtexl::JsonValue &resp);

  private:
    int fd_ = -1;
    std::string buf_;
    std::size_t scanned_ = 0;
};

/**
 * A dtexld child on @p stateDir (wiped first unless @p reuse), with
 * the subscribe connection and kClients command connections open.
 * Throws std::runtime_error when the daemon does not come up; the
 * child is killed on every path that does not drain it.
 */
class DaemonProcess
{
  public:
    DaemonProcess(const std::string &dtexld, std::string stateDir,
                  const std::vector<std::string> &args, bool reuse);
    ~DaemonProcess();
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Drain through the protocol and wait; the exit code, or -1 when
     *  the daemon died of a signal or had to be killed. */
    int drain();
    /** True once the child has exited (reaped here). */
    bool exited();

    int pid() const { return pid_; }
    const std::string &dir() const { return dir_; }

    Conn sub;
    Conn clients[kClients];

  private:
    void kill();

    std::string dir_;
    int pid_ = -1;
    /** waitpid status once reaped. */
    int status_ = 0;
    bool reaped_ = false;
};

/** Everything observed about one submitted job. */
struct JobRun
{
    std::string label;
    /** Index of the job's spec in the caller's spec list. */
    std::size_t spec = 0;
    std::string submit;
    // Client steady-clock times (ns).
    std::int64_t sendNs = 0, ackNs = 0, doneNs = 0;
    // Ledger times (daemon ms since its ledger was armed); -1 = unseen.
    double startT = -1, lookupT = -1, storeT = -1, completeT = -1;
    /** job_frame / job_checkpoint times in arrival order (true =
     *  checkpoint). */
    std::vector<std::pair<double, bool>> steps;
    bool cacheHit = false;
    /** The last outcome event read (job_complete or job_error). */
    bool finished = false;
    bool errored = false;
    // From the status fetched after the loop.
    std::string state;
    std::uint64_t cycles = 0;
    std::string imageHash;
    bool cached = false;
    double wallMs = 0.0;
    std::uint64_t attempts = 0;
};

/** Maps the daemon's ledger clock (t_ms) onto this process's steady
 *  clock, through the ledger's Unix-time ts_ms. */
struct LedgerClock
{
    /** Best estimate of the ledger's arm time, Unix ms. */
    double armUnixMs = -1e300;
    /** Unix ms minus steady ms, measured here. */
    double unixMinusSteadyMs = 0.0;

    void calibrate();
    /** ts_ms is floor(Unix ms), so ts_ms - t_ms never exceeds the arm
     *  time; the largest value seen is the tightest bound. */
    void observe(double tsMs, double tMs);
    std::int64_t toSteadyNs(double tMs) const;
};

struct PhaseResult
{
    /** First submit to the last outcome's receipt, seconds. */
    double wallS = 0.0;
    /** Queue-full answers (each was retried after retry_after_ms). */
    std::size_t rejects = 0;
};

/**
 * Run @p jobs through @p d in the closed loop, on the calling thread.
 * Returns when every job is over (a terminal outcome, or a refused
 * submit) or the daemon stops making progress; then fetches every
 * job's status.
 */
PhaseResult runPhase(DaemonProcess &d, std::vector<JobRun> &jobs,
                     LedgerClock &clock);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_CLIENT_HH
