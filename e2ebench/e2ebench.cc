/**
 * @file
 * End-to-end paper-app benchmark driver.
 *
 * Runs one workload — a paper application under one protocol,
 * topology and transport — repeatedly through the public driver calls
 * (makeApp, App::runSequential, Cluster construction, Cluster::run,
 * App::validate) and prints one JSON record per app run on stdout.
 * e2ebench/run.py builds this driver, turns the records into the
 * benchmark's metrics and writes the trace; see e2ebench/README.md.
 *
 * Process structure: the parent stays single-threaded. It computes the
 * sequential reference once, then forks one child per app run; the
 * child inherits the reference, builds the cluster, runs, validates
 * and sends its record back through a pipe. The parent enforces a
 * wall-clock deadline per run and kills the child's whole process
 * group (socket-tier node processes included) when it passes. An
 * abort, a fatal signal, a deadline overrun, an application exception
 * or a validation mismatch is reported as a failed run, never retried.
 */

#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/app.hh"
#include "driver/proc_launcher.hh"

namespace {

using namespace dsm;

/** One benchmark workload: an app under one cluster configuration. */
struct Workload
{
    const char *name;
    const char *app;
    const char *runtime; ///< paper-style RuntimeConfig name
    int nodes;
    int threads;
    bool homeBased;
    const char *transport;
};

const Workload kWorkloads[] = {
    {"sor-lrc-diff", "SOR", "LRC-diff", 4, 1, false, "ring"},
    {"qs-ec-smp", "QS", "EC-time", 2, 2, false, "ring"},
    {"water-home-socket", "Water", "LRC-diff", 4, 1, true, "socket"},
};

/** Arena per node: the table benches' size (bench/bench_common.hh). */
constexpr std::size_t kArenaBytes = 48u << 20;
constexpr std::size_t kPageSize = 4096;
constexpr int kMaxWorkers = 64;

/** Exit code of a child whose application threw. */
constexpr int kChildAppError = 3;

/** Wall-clock deadline of one app run: ten times the slowest paper-scale
 *  run seen (SOR, 2-2.5 s), and at test scale well above its 0.5 s. */
constexpr double kPaperDeadlineS = 30.0;
constexpr double kTestDeadlineS = 5.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scale = "paper";
    double deadlineS = kPaperDeadlineS; ///< follows the scale
    std::string inject; ///< "", "abort" or "hang" (self-test workers)
    std::string workDir = ".bench_out";
};

/** Worker span slot in memory shared with every descendant process. */
struct WorkerSpan
{
    std::int64_t t0;
    std::int64_t t1;
    std::int32_t node;
    std::int32_t thread;
};

/** Steady-clock nanoseconds; on Linux this is CLOCK_MONOTONIC, which
 *  every process of the run shares, so spans from node processes line
 *  up with the run process's own. */
std::int64_t
monoNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "e2ebench: %s\n"
                 "usage: e2ebench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                [--scale paper|test] "
                 "[--inject abort|hang]\n"
                 "                [--work-dir DIR]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--scale")
            o.scale = v;
        else if (a == "--inject")
            o.inject = v;
        else if (a == "--work-dir")
            o.workDir = v;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.scale != "paper" && o.scale != "test")
        usage("--scale must be paper or test");
    o.deadlineS = o.scale == "paper" ? kPaperDeadlineS : kTestDeadlineS;
    if (!o.inject.empty() && o.inject != "abort" && o.inject != "hang")
        usage("--inject must be abort or hang");
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Self-test: make a worker fail the way --inject names, inside
 *  Cluster::run (on the socket tier, inside a node process). */
void
injectFailure(const std::string &inject)
{
    if (inject == "abort")
        std::abort();
    if (inject == "hang")
        for (;;)
            ::pause();
}

/** The measured part of one app run, executed in a forked child. */
[[noreturn]] void
childRun(const Options &opt, App &app,
         const AppParams &params, const ClusterConfig &cc, bool traced,
         WorkerSpan *spans, const std::string &tmp_dir, int out_fd)
{
    ::setpgid(0, 0);
    // Program output goes to stderr; stdout carries only records.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    // The socket tier makes its ephemeral rendezvous directory under
    // TMPDIR and binds Unix sockets inside it, whose paths must fit in
    // sun_path (108 bytes). Working from this execution's own
    // directory with TMPDIR "." keeps them short and relative
    // ("./dsm-cluster-XXXXXX/node-0.sock") however deep the checkout.
    if (::chdir(tmp_dir.c_str()) != 0) {
        std::perror(tmp_dir.c_str());
        ::_exit(1);
    }
    ::setenv("TMPDIR", ".", 1);

    std::string rec = "{";
    int code = 0;
    try {
        const std::int64_t ts0 = monoNs();
        Cluster cluster(cc);
        const std::int64_t ts1 = monoNs();

        if (traced)
            std::memset(spans, 0, sizeof(WorkerSpan) * kMaxWorkers);
        rusage self0, kids0, self1, kids1;
        ::getrusage(RUSAGE_SELF, &self0);
        ::getrusage(RUSAGE_CHILDREN, &kids0);
        const std::int64_t tr0 = monoNs();
        RunResult res = cluster.run([&](Runtime &rt) {
            injectFailure(opt.inject);
            if (!traced) {
                app.runNode(rt, params);
                return;
            }
            WorkerSpan &s = spans[rt.worker()];
            s.node = rt.self();
            s.thread = rt.threadId();
            s.t0 = monoNs();
            app.runNode(rt, params);
            s.t1 = monoNs();
        });
        const std::int64_t tr1 = monoNs();
        ::getrusage(RUSAGE_SELF, &self1);
        ::getrusage(RUSAGE_CHILDREN, &kids1);

        const std::int64_t tv0 = monoNs();
        const Verdict verdict = app.validate(cluster, params);
        const std::int64_t tv1 = monoNs();

        const double user = tvSeconds(self1.ru_utime) -
                            tvSeconds(self0.ru_utime) +
                            tvSeconds(kids1.ru_utime) -
                            tvSeconds(kids0.ru_utime);
        const double sys = tvSeconds(self1.ru_stime) -
                           tvSeconds(self0.ru_stime) +
                           tvSeconds(kids1.ru_stime) -
                           tvSeconds(kids0.ru_stime);
        auto delta = [&](long rusage::*f) {
            return std::to_string((self1.*f - self0.*f) +
                                  (kids1.*f - kids0.*f));
        };
        rec += "\"t_setup\":[" + std::to_string(ts0) + "," +
               std::to_string(ts1) + "]";
        rec += ",\"t_run\":[" + std::to_string(tr0) + "," +
               std::to_string(tr1) + "]";
        rec += ",\"t_validate\":[" + std::to_string(tv0) + "," +
               std::to_string(tv1) + "]";
        rec += ",\"cpu_user_s\":" + num(user);
        rec += ",\"cpu_sys_s\":" + num(sys);
        rec += ",\"ctx_vol\":" + delta(&rusage::ru_nvcsw);
        rec += ",\"ctx_invol\":" + delta(&rusage::ru_nivcsw);
        rec += ",\"minflt\":" + delta(&rusage::ru_minflt);
        rec += ",\"rss_self_kb\":" + std::to_string(self1.ru_maxrss);
        rec += ",\"rss_children_kb\":" + std::to_string(kids1.ru_maxrss);
        rec += ",\"exec_ns\":" + std::to_string(res.execTimeNs);
        rec += ",\"node_ns\":[";
        for (std::size_t i = 0; i < res.nodeTimesNs.size(); ++i) {
            rec += i ? "," : "";
            rec += std::to_string(res.nodeTimesNs[i]);
        }
        rec += "],\"nodes\":[";
        for (std::size_t i = 0; i < res.perNode.size(); ++i) {
            rec += i ? ",{" : "{";
            bool first = true;
            for (const auto &[name, v] : res.perNode[i].items()) {
                rec += first ? "\"" : ",\"";
                rec += name + "\":" + std::to_string(v);
                first = false;
            }
            rec += "}";
        }
        rec += "],\"workers\":[";
        if (traced) {
            const int nw = cluster.nworkers();
            for (int w = 0; w < nw; ++w) {
                const WorkerSpan &s = spans[w];
                rec += w ? "," : "";
                rec += "{\"worker\":" + std::to_string(w) + ",\"node\":" +
                       std::to_string(s.node) + ",\"thread\":" +
                       std::to_string(s.thread) + ",\"t\":[" +
                       std::to_string(s.t0) + "," +
                       std::to_string(s.t1) + "]}";
            }
        }
        rec += "],\"valid\":" + std::string(verdict.ok ? "true" : "false");
        rec += ",\"verdict\":\"" + jsonEscape(verdict.detail) + "\"";
    } catch (const std::exception &e) {
        rec = "{\"error\":\"" + jsonEscape(e.what()) + "\"";
        code = kChildAppError;
    }
    rec += "}";

    const char *p = rec.data();
    std::size_t left = rec.size();
    while (left > 0) {
        const ssize_t n = ::write(out_fd, p, left);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    ::close(out_fd);
    ::_exit(code);
}

/** Kill and reap every process of the child's group. */
void
reapGroup(pid_t pgid)
{
    ::kill(-pgid, SIGKILL);
    for (;;) {
        const pid_t r = ::waitpid(-pgid, nullptr, 0);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            break;
    }
}

struct Outcome
{
    std::string status; ///< "ok" or "failed"
    std::string reason;
    std::string record; ///< the child's JSON object, or "null"
};

/** Fork one app run, wait for it under the deadline, classify it. */
Outcome
forkRun(const Options &opt, App &app,
        const AppParams &params, const ClusterConfig &cc, bool traced,
        WorkerSpan *spans, const std::string &tmp_dir)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        ::close(fds[0]);
        childRun(opt, app, params, cc, traced, spans, tmp_dir, fds[1]);
    }
    ::setpgid(pid, pid); // also done by the child; whichever runs first
    ::close(fds[1]);

    const std::int64_t deadline =
        monoNs() + static_cast<std::int64_t>(opt.deadlineS * 1e9);
    std::string buf;
    bool overran = false;
    for (;;) {
        const std::int64_t left = deadline - monoNs();
        if (left <= 0) {
            overran = true;
            break;
        }
        pollfd pfd{fds[0], POLLIN, 0};
        const int pr = ::poll(&pfd, 1,
                              static_cast<int>(left / 1000000 + 1));
        if (pr < 0 && errno == EINTR)
            continue;
        if (pr == 0)
            continue;
        char chunk[65536];
        const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // EOF: the child closed its end or died
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);

    Outcome out;
    int status = 0;
    if (overran) {
        ::kill(-pid, SIGKILL);
        ::kill(pid, SIGKILL);
    }
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    // Orphaned node processes were reparented to this (subreaper)
    // process; make sure none outlives the run, nor its rendezvous
    // directory (a killed run cannot remove its own).
    reapGroup(pid);
    if (DIR *d = ::opendir(tmp_dir.c_str())) {
        while (dirent *e = ::readdir(d))
            if (std::strncmp(e->d_name, "dsm-cluster-", 12) == 0)
                removeRendezvousDir(tmp_dir + "/" + e->d_name);
        ::closedir(d);
    }

    // A killed child may have left half a record behind.
    const bool killed = overran || WIFSIGNALED(status);
    out.record = buf.empty() || killed ? "null" : buf;
    if (overran) {
        out.status = "failed";
        out.reason = "deadline: no result after " + num(opt.deadlineS) +
                     " s; process group killed";
    } else if (WIFSIGNALED(status)) {
        out.status = "failed";
        out.reason = std::string("signal ") +
                     std::to_string(WTERMSIG(status)) + " (" +
                     ::strsignal(WTERMSIG(status)) + ")";
    } else if (WEXITSTATUS(status) != 0) {
        out.status = "failed";
        out.reason = "exit code " + std::to_string(WEXITSTATUS(status));
    } else if (buf.empty()) {
        out.status = "failed";
        out.reason = "no result record";
    } else if (buf.find("\"valid\":true") == std::string::npos) {
        out.status = "failed";
        out.reason = "validation mismatch";
    } else {
        out.status = "ok";
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    if (std::string(E2E_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "e2ebench: refusing a %s build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     E2E_BUILD_TYPE);
        return 2;
    }

    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            wl = &w;
    if (wl == nullptr)
        usage(("unknown workload '" + opt.workload + "'").c_str());

    AppParams params = opt.scale == "paper" ? AppParams::paperScale()
                                            : AppParams::testScale();
    params.seed = opt.seed;

    ClusterConfig cc;
    cc.nprocs = wl->nodes;
    cc.threadsPerNode = wl->threads;
    cc.runtime = RuntimeConfig::parse(wl->runtime);
    cc.homeBasedLrc = wl->homeBased;
    cc.transport = wl->transport;
    cc.arenaBytes = kArenaBytes;
    cc.pageSize = kPageSize;
    if (wl->nodes * wl->threads > kMaxWorkers)
        usage("too many workers");

    const std::string tmpDir =
        opt.workDir + "/tmp-" + std::to_string(::getpid());
    for (const std::string &dir : {opt.workDir, tmpDir}) {
        if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) {
            std::perror(dir.c_str());
            return 1;
        }
    }

    // Orphaned socket-tier node processes of a killed run come back
    // to this process so it can reap them.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);

    // Worker spans live in memory every descendant shares: ring-tier
    // workers are threads of the run child, socket-tier workers live
    // in the node processes it forks.
    void *shm = ::mmap(nullptr, sizeof(WorkerSpan) * kMaxWorkers,
                       PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                       -1, 0);
    if (shm == MAP_FAILED) {
        std::perror("mmap");
        return 1;
    }
    auto *spans = static_cast<WorkerSpan *>(shm);

    auto app = makeApp(wl->app);
    const std::int64_t q0 = monoNs();
    const SeqResult seq = app->runSequential(params);
    const std::int64_t q1 = monoNs();

    std::printf(
        "{\"type\":\"header\",\"workload\":\"%s\",\"app\":\"%s\","
        "\"runtime\":\"%s\",\"home_based\":%s,\"nodes\":%d,"
        "\"threads\":%d,\"transport\":\"%s\",\"scale\":\"%s\","
        "\"seed\":%llu,\"arena_bytes\":%zu,\"page_size\":%zu,"
        "\"build_type\":\"%s\",\"compiler\":\"%s\",\"nproc\":%ld,"
        "\"cpu_model\":\"%s\",\"deadline_s\":%s,\"tmp_dir\":\"%s\","
        "\"t_seq\":[%lld,%lld],"
        "\"seq_virt_s\":%s,\"cost\":{\"workUnitNs\":%llu,"
        "\"pageFaultNs\":%llu,\"perWordTwinNs\":%llu,"
        "\"perWordDiffNs\":%llu,\"perWordScanNs\":%llu,"
        "\"dirtyStoreNs\":%llu}}\n",
        wl->name, wl->app, wl->runtime, wl->homeBased ? "true" : "false",
        wl->nodes, wl->threads, wl->transport, opt.scale.c_str(),
        static_cast<unsigned long long>(opt.seed), kArenaBytes, kPageSize,
        E2E_BUILD_TYPE, jsonEscape(E2E_CXX_COMPILER).c_str(),
        ::sysconf(_SC_NPROCESSORS_ONLN), jsonEscape(cpuModel()).c_str(),
        num(opt.deadlineS).c_str(), jsonEscape(tmpDir).c_str(),
        static_cast<long long>(q0),
        static_cast<long long>(q1), num(seq.seconds(cc.cost)).c_str(),
        static_cast<unsigned long long>(cc.cost.workUnitNs),
        static_cast<unsigned long long>(cc.cost.pageFaultNs),
        static_cast<unsigned long long>(cc.cost.perWordTwinNs),
        static_cast<unsigned long long>(cc.cost.perWordDiffNs),
        static_cast<unsigned long long>(cc.cost.perWordScanNs),
        static_cast<unsigned long long>(cc.cost.dirtyStoreNs));

    // Closed loop, one app run at a time, until the measuring window
    // is used up. Traced executions alternate traced and untraced
    // runs so the tracing overhead is measured under the same load.
    const std::int64_t start = monoNs();
    const std::int64_t window =
        static_cast<std::int64_t>(opt.seconds * 1e9);
    for (int i = 0; i == 0 || monoNs() - start < window; ++i) {
        const bool traced = opt.trace && i % 2 == 0;
        const Outcome o =
            forkRun(opt, *app, params, cc, traced, spans, tmpDir);
        std::printf("{\"type\":\"run\",\"index\":%d,\"traced\":%s,"
                    "\"status\":\"%s\",\"reason\":\"%s\",\"record\":%s}\n",
                    i, traced ? "true" : "false", o.status.c_str(),
                    jsonEscape(o.reason).c_str(), o.record.c_str());
        std::fflush(stdout);
    }
    ::rmdir(tmpDir.c_str());
    return 0;
}
