#include "driver/proc_launcher.hh"

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "util/logging.hh"

namespace dsm {

// The dump memcpys the counter block whole; any non-trivial member
// would silently corrupt the parent's fold.
static_assert(std::is_trivially_copyable_v<NodeStats>,
              "NodeStats must stay a plain counter block");

namespace {

constexpr std::uint32_t kResultMagic = 0x52534d44; // "DMSR"

std::string
resultPath(const std::string &dir, int rank)
{
    return dir + "/node-" + std::to_string(rank) + ".result";
}

void
writeAll(FILE *f, const void *data, std::size_t n)
{
    DSM_ASSERT(std::fwrite(data, 1, n, f) == n, "result dump write: %s",
               std::strerror(errno));
}

void
readAll(FILE *f, void *data, std::size_t n)
{
    DSM_ASSERT(std::fread(data, 1, n, f) == n,
               "result dump truncated");
}

template <typename T>
void
writePod(FILE *f, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    writeAll(f, &v, sizeof(v));
}

template <typename T>
T
readPod(FILE *f)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    readAll(f, &v, sizeof(v));
    return v;
}

} // namespace

std::string
makeRendezvousDir()
{
    const char *base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/dsm-cluster-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    DSM_ASSERT(::mkdtemp(buf.data()) != nullptr, "mkdtemp(%s): %s",
               tmpl.c_str(), std::strerror(errno));
    return std::string(buf.data());
}

void
removeRendezvousDir(const std::string &dir)
{
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return;
    while (dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
    ::rmdir(dir.c_str());
}

int
forkNodeProcesses(int nnodes, std::vector<pid_t> &pids)
{
    pids.clear();
    pids.reserve(nnodes);
    for (int rank = 0; rank < nnodes; ++rank) {
        const pid_t pid = ::fork();
        DSM_ASSERT(pid >= 0, "fork: %s", std::strerror(errno));
        if (pid == 0) {
            pids.clear(); // the child owns no siblings
            return rank;
        }
        pids.push_back(pid);
    }
    return -1;
}

bool
awaitNodeProcesses(const std::vector<pid_t> &pids, std::string &failure,
                   std::vector<int> &app_error_ranks)
{
    bool ok = true;
    for (std::size_t rank = 0; rank < pids.size(); ++rank) {
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(pids[rank], &status, 0);
        } while (r < 0 && errno == EINTR);
        DSM_ASSERT(r == pids[rank], "waitpid(node %zu): %s", rank,
                   std::strerror(errno));
        std::string why;
        if (WIFEXITED(status)) {
            const int code = WEXITSTATUS(status);
            if (code == 0)
                continue;
            if (code == kAppErrorExit) {
                app_error_ranks.push_back(static_cast<int>(rank));
                continue;
            }
            why = "exited with code " + std::to_string(code);
        } else {
            why = "killed by signal " + std::to_string(WTERMSIG(status));
        }
        // The first dead node fails the run. The nodes not yet reaped
        // would block on it until their goodbye timeout (or forever,
        // in a barrier), so kill them.
        if (ok) {
            ok = false;
            failure = "node " + std::to_string(rank) + " " + why;
            for (std::size_t peer = rank + 1; peer < pids.size(); ++peer)
                ::kill(pids[peer], SIGKILL);
        }
    }
    return ok;
}

void
writeNodeResult(const std::string &dir, const NodeResult &result)
{
    const std::string tmp = resultPath(dir, result.rank) + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "wb");
    DSM_ASSERT(f != nullptr, "fopen(%s): %s", tmp.c_str(),
               std::strerror(errno));
    writePod(f, kResultMagic);
    writePod(f, result.rank);
    writePod(f, static_cast<std::uint32_t>(result.error.size()));
    if (!result.error.empty())
        writeAll(f, result.error.data(), result.error.size());
    writePod(f, result.clockNs);
    writePod(f, result.transportMessages);
    writePod(f, result.stats);
    DSM_ASSERT(std::fflush(f) == 0 && std::fclose(f) == 0,
               "result dump flush: %s", std::strerror(errno));
    DSM_ASSERT(std::rename(tmp.c_str(),
                           resultPath(dir, result.rank).c_str()) == 0,
               "result dump rename: %s", std::strerror(errno));
}

NodeResult
readNodeResult(const std::string &dir, int rank)
{
    const std::string path = resultPath(dir, rank);
    FILE *f = std::fopen(path.c_str(), "rb");
    DSM_ASSERT(f != nullptr,
               "node %d produced no result dump (%s): %s", rank,
               path.c_str(), std::strerror(errno));
    NodeResult out;
    DSM_ASSERT(readPod<std::uint32_t>(f) == kResultMagic,
               "corrupt result dump %s", path.c_str());
    out.rank = readPod<int>(f);
    DSM_ASSERT(out.rank == rank, "dump rank %d in %s", out.rank,
               path.c_str());
    const std::uint32_t errLen = readPod<std::uint32_t>(f);
    if (errLen > 0) {
        out.error.resize(errLen);
        readAll(f, out.error.data(), errLen);
    }
    out.clockNs = readPod<std::uint64_t>(f);
    out.transportMessages = readPod<std::uint64_t>(f);
    out.stats = readPod<NodeStats>(f);
    std::fclose(f);
    return out;
}

} // namespace dsm
