#include "daemon_client.hh"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "trace.hh"

namespace perfbench {

using dtexl::JsonValue;
using dtexl::parseJson;

namespace {

/** No ledger line or response for this long means dtexld is stuck. */
constexpr int kStallTimeoutMs = 120000;

bool
terminalState(const std::string &s)
{
    return s == "done" || s == "failed" || s == "cancelled" ||
           s == "expired";
}

} // namespace

// ---- Conn ------------------------------------------------------------

bool
Conn::open(const std::string &path)
{
    close();
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return false;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return false;
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        close();
        return false;
    }
    return true;
}

void
Conn::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
    buf_.clear();
    scanned_ = 0;
}

bool
Conn::send(const std::string &line)
{
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Conn::nextLine(std::string &line)
{
    const std::size_t nl = buf_.find('\n', scanned_);
    if (nl == std::string::npos) {
        scanned_ = buf_.size();
        return false;
    }
    line.assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    scanned_ = 0;
    return true;
}

bool
Conn::fill()
{
    char chunk[65536];
    for (;;) {
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(n));
        return true;
    }
}

bool
Conn::readLine(std::string &line, int timeoutMs)
{
    while (!nextLine(line)) {
        pollfd p{fd_, POLLIN, 0};
        const int r = ::poll(&p, 1, timeoutMs);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0 || !fill())
            return false;
    }
    return true;
}

bool
Conn::call(const std::string &req, JsonValue &resp)
{
    std::string line, err;
    return send(req) && readLine(line, kStallTimeoutMs) &&
           parseJson(line, resp, err);
}

// ---- DaemonProcess -----------------------------------------------------

DaemonProcess::DaemonProcess(const std::string &dtexld, std::string stateDir,
                             const std::vector<std::string> &extra,
                             bool reuse)
    : dir_(std::move(stateDir))
{
    namespace fs = std::filesystem;
    if (!reuse)
        fs::remove_all(dir_);
    fs::create_directories(dir_);
    const std::string sock = dir_ + "/d.sock";
    const std::string log = dir_ + "/daemon.log";
    std::vector<std::string> args = {dtexld, "--state-dir=" + dir_,
                                     "--socket=" + sock};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0)
        throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        // Never outlive the benchmark, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }

    try {
        // The socket accepts once the daemon listens; the first
        // connection that succeeds becomes the subscriber.
        const std::int64_t t0 = nowNs();
        while (!sub.open(sock)) {
            if (exited() || msSince(t0) > 60000)
                throw std::runtime_error("dtexld did not start; see " + log);
            ::usleep(200);
        }
        for (Conn &c : clients)
            if (!c.open(sock))
                throw std::runtime_error("cannot connect to dtexld");
        JsonValue pong;
        if (!clients[0].call("{\"cmd\":\"ping\"}\n", pong) ||
            !pong.flag("ok"))
            throw std::runtime_error("dtexld does not answer ping");
        if (!sub.send("{\"cmd\":\"subscribe\"}\n"))
            throw std::runtime_error("cannot subscribe to dtexld");
    } catch (...) {
        kill();
        throw;
    }
}

DaemonProcess::~DaemonProcess()
{
    kill();
}

void
DaemonProcess::kill()
{
    if (pid_ > 0 && !reaped_) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status_, 0);
        reaped_ = true;
    }
}

bool
DaemonProcess::exited()
{
    if (!reaped_ && ::waitpid(pid_, &status_, WNOHANG) == pid_)
        reaped_ = true;
    return reaped_;
}

int
DaemonProcess::drain()
{
    JsonValue report;
    clients[0].call("{\"cmd\":\"drain\"}\n", report);
    for (Conn &c : clients)
        c.close();
    sub.close();
    const std::int64_t t0 = nowNs();
    while (!exited()) {
        if (msSince(t0) > 60000) {
            kill();
            return -1;
        }
        ::usleep(1000);
    }
    return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
}

// ---- LedgerClock -------------------------------------------------------

void
LedgerClock::calibrate()
{
    const auto sys = std::chrono::system_clock::now().time_since_epoch();
    unixMinusSteadyMs = std::chrono::duration<double, std::milli>(sys).count() -
                        static_cast<double>(nowNs()) / 1e6;
}

void
LedgerClock::observe(double tsMs, double tMs)
{
    armUnixMs = std::max(armUnixMs, tsMs - tMs);
}

std::int64_t
LedgerClock::toSteadyNs(double tMs) const
{
    return static_cast<std::int64_t>((armUnixMs + tMs - unixMinusSteadyMs) *
                                     1e6);
}

// ---- the closed loop ---------------------------------------------------

namespace {

/**
 * The value of top-level field @p key (spelled with its quotes and
 * colon, e.g. "\"job\":") in one ledger line. The ledger writer emits
 * event kinds and job labels without escapes, so a string value ends at
 * the next quote and a number at the next ',' or '}'.
 */
std::string_view
ledgerField(std::string_view line, std::string_view key)
{
    std::size_t p = line.find(key);
    if (p == std::string_view::npos)
        return {};
    p += key.size();
    if (p < line.size() && line[p] == '"') {
        const std::size_t e = line.find('"', p + 1);
        return e == std::string_view::npos ? std::string_view{}
                                           : line.substr(p + 1, e - p - 1);
    }
    const std::size_t e = line.find_first_of(",}", p);
    return line.substr(p, e == std::string_view::npos ? e : e - p);
}

double
ledgerNumber(std::string_view line, std::string_view key)
{
    const std::string_view v = ledgerField(line, key);
    double out = 0.0;
    std::from_chars(v.data(), v.data() + v.size(), out);
    return out;
}

} // namespace

PhaseResult
runPhase(DaemonProcess &d, std::vector<JobRun> &jobs, LedgerClock &clock)
{
    // One thread drives all four connections: a job's next submit goes
    // out as soon as its job_complete is read, with no hand-off between
    // threads to add scheduling delay to the loop.
    std::unordered_map<std::string, std::size_t> byLabel;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        byLabel.emplace(jobs[i].label, i);

    struct Client
    {
        Conn *conn = nullptr;
        /** Job in flight, or npos. */
        std::size_t job = std::string::npos;
        bool acked = false;
        /** A status request (after a job_error) is outstanding. */
        bool statusPending = false;
        /** Resubmit at this time after a queue-full answer (0 = no). */
        std::int64_t resendNs = 0;
    };
    Client cl[kClients];
    std::vector<std::size_t> owner(jobs.size(), kClients);
    std::size_t next = 0, over = 0, rejects = 0;
    bool broken = false;

    auto submit = [&](Client &c) {
        if (next >= jobs.size()) {
            c.job = std::string::npos;
            return;
        }
        c.job = next++;
        c.acked = false;
        owner[c.job] = static_cast<std::size_t>(&c - cl);
        JobRun &j = jobs[c.job];
        j.sendNs = nowNs();
        broken |= !c.conn->send(j.submit);
    };
    auto jobOver = [&](Client &c) {
        ++over;
        submit(c);
    };
    auto askStatus = [&](Client &c) {
        c.statusPending = true;
        broken |= !c.conn->send("{\"cmd\":\"status\",\"job\":\"" +
                                jobs[c.job].label + "\"}\n");
    };
    // An outcome for the client's job, once its ack is in: a
    // job_complete ends the job; a job_error may be followed by a
    // retry, so the status decides.
    auto outcome = [&](Client &c) {
        if (jobs[c.job].errored)
            askStatus(c);
        else
            jobOver(c);
    };

    auto onLedgerLine = [&](std::string_view line, std::int64_t recvNs) {
        const double tMs = ledgerNumber(line, "\"t_ms\":");
        clock.observe(ledgerNumber(line, "\"ts_ms\":"), tMs);
        const auto it = byLabel.find(std::string(ledgerField(line, "\"job\":")));
        if (it == byLabel.end())
            return;
        JobRun &j = jobs[it->second];
        const std::string_view kind = ledgerField(line, "\"event\":");
        if (kind == "job_start") {
            j.startT = tMs;
        } else if (kind == "job_cache_hit") {
            j.lookupT = tMs;
            j.cacheHit = true;
        } else if (kind == "job_cache_miss") {
            j.lookupT = tMs;
        } else if (kind == "job_frame" || kind == "job_checkpoint") {
            j.steps.emplace_back(tMs, kind == "job_checkpoint");
        } else if (kind == "job_cache_store") {
            j.storeT = tMs;
        } else if (kind == "job_complete" || kind == "job_error") {
            j.completeT = tMs;
            j.doneNs = recvNs;
            j.finished = true;
            j.errored = kind == "job_error";
            Client &c = cl[owner[it->second]];
            if (c.job == it->second && c.acked && !c.statusPending)
                outcome(c);
        }
    };

    auto onResponse = [&](Client &c, const std::string &line,
                          std::int64_t recvNs) {
        JsonValue resp;
        std::string err;
        if (c.job == std::string::npos || !parseJson(line, resp, err))
            return;
        JobRun &j = jobs[c.job];
        if (c.statusPending) {
            c.statusPending = false;
            const JsonValue *s = resp.find("status");
            if (!s || terminalState(s->str("state"))) {
                jobOver(c);
            } else {
                j.finished = false; // retrying: wait for the next outcome
                j.errored = false;
            }
            return;
        }
        j.ackNs = recvNs;
        if (resp.flag("ok")) {
            c.acked = true;
            if (j.finished)
                outcome(c); // the ledger line beat the ack
        } else if (const JsonValue *after = resp.find("retry_after_ms")) {
            // Queue full: the protocol's backpressure; honour it.
            ++rejects;
            c.resendNs = recvNs +
                         static_cast<std::int64_t>(after->number * 1e6);
        } else {
            std::cerr << "perfbench: submit of " << j.label
                      << " refused: " << resp.str("error") << "\n";
            jobOver(c);
        }
    };

    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < kClients; ++i) {
        cl[i].conn = &d.clients[i];
        submit(cl[i]);
    }
    std::int64_t lastProgress = t0;
    std::string line;
    while (over < jobs.size() && !broken) {
        pollfd fds[1 + kClients];
        fds[0] = {d.sub.fd(), POLLIN, 0};
        for (std::size_t i = 0; i < kClients; ++i)
            fds[1 + i] = {d.clients[i].fd(), POLLIN, 0};
        const int r = ::poll(fds, 1 + kClients, 20);
        if (r < 0 && errno != EINTR)
            break;
        const std::int64_t now = nowNs();
        if (r > 0)
            lastProgress = now;
        else if (msSince(lastProgress) > kStallTimeoutMs || d.exited())
            break;
        if (fds[0].revents) {
            broken |= !d.sub.fill();
            while (d.sub.nextLine(line))
                onLedgerLine(line, now);
        }
        for (std::size_t i = 0; i < kClients; ++i) {
            Client &c = cl[i];
            if (fds[1 + i].revents) {
                broken |= !c.conn->fill();
                while (c.conn->nextLine(line))
                    onResponse(c, line, now);
            }
            if (c.resendNs != 0 && now >= c.resendNs) {
                c.resendNs = 0;
                jobs[c.job].sendNs = now;
                broken |= !c.conn->send(jobs[c.job].submit);
            }
        }
    }
    if (over < jobs.size())
        std::cerr << "perfbench: dtexld stopped making progress ("
                  << over << " of " << jobs.size() << " jobs over)\n";

    // Results, outside the timed loop: the status of every job.
    // job_complete is emitted just before the daemon files the result,
    // so the last jobs may still read "running" for a moment.
    for (int attempt = 0; !broken && attempt < 100; ++attempt) {
        JsonValue all;
        const JsonValue *list = nullptr;
        if (!d.clients[0].call("{\"cmd\":\"status\"}\n", all) ||
            !(list = all.find("jobs")))
            break;
        bool settled = true;
        for (const JsonValue &s : list->items) {
            const auto it = byLabel.find(s.str("job"));
            if (it == byLabel.end())
                continue;
            JobRun &j = jobs[it->second];
            j.state = s.str("state");
            j.cycles = static_cast<std::uint64_t>(s.num("cycles"));
            j.imageHash = s.str("image_hash");
            j.cached = s.flag("cached");
            j.wallMs = s.num("wall_ms");
            j.attempts = static_cast<std::uint64_t>(s.num("attempts"));
            settled &= terminalState(j.state) || !j.finished;
        }
        if (settled)
            break;
        ::usleep(10000);
    }

    PhaseResult pr;
    std::int64_t last = t0;
    for (const JobRun &j : jobs)
        last = std::max(last, j.doneNs);
    pr.wallS = static_cast<double>(last - t0) / 1e9;
    pr.rejects = rejects;
    return pr;
}

} // namespace perfbench
