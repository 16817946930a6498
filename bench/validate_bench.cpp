// CI gate for the machine-readable perf trajectory: validates every
// BENCH_*.json passed on the command line against the xrp-bench-v1
// envelope. Fails (non-zero exit, one line per problem) on malformed
// JSON, a wrong/missing schema tag, a missing bench name or meta object,
// an empty or missing rows array, a non-object row, or a row value that
// is not a scalar (number / string / bool). Latency rows get semantic
// checks on top of the envelope: any row carrying p50_ms/p95_ms/p99_ms
// must have them numeric and ordered (p50 <= p95 <= p99), and CDF rows
// (those with a "pct" key) must keep pct within [0,100], ms >= 0, and ms
// non-decreasing across consecutive rows of the same (figure, mode)
// series — a regression that scrambles a distribution fails the gate,
// not just one that breaks the JSON shape.
//
// Hitless-upgrade rows (mode == "upgrade") and real-process kill-chaos
// rows (schedule == "process_kill") carry hard invariants, not just
// measurements: a committed artifact claiming routes were lost or the
// FIB flinched fails validation — those numbers are the feature's
// contract, so the trajectory file itself gates them. So do the Figs
// 10-12 profiling-point rows (those with a "point" key): every test
// route must have been measured (measured == meta.test_routes) and
// min <= avg <= max.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "telemetry/json.hpp"

using xrp::json::Value;

namespace {

int check_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto doc = Value::parse(buf.str());
    if (!doc) {
        std::fprintf(stderr, "%s: malformed JSON\n", path.c_str());
        return 1;
    }
    if (!doc->is_object()) {
        std::fprintf(stderr, "%s: top level is not an object\n", path.c_str());
        return 1;
    }
    int bad = 0;
    auto schema = doc->get_string("schema");
    if (!schema || *schema != "xrp-bench-v1") {
        std::fprintf(stderr, "%s: schema != \"xrp-bench-v1\"\n", path.c_str());
        ++bad;
    }
    auto bench = doc->get_string("bench");
    if (!bench || bench->empty()) {
        std::fprintf(stderr, "%s: missing bench name\n", path.c_str());
        ++bad;
    }
    const Value* meta = doc->find("meta");
    if (meta == nullptr || !meta->is_object()) {
        std::fprintf(stderr, "%s: missing meta object\n", path.c_str());
        ++bad;
    }
    const Value* rows = doc->find("rows");
    if (rows == nullptr || !rows->is_array() || rows->size() == 0) {
        std::fprintf(stderr, "%s: rows missing or empty\n", path.c_str());
        return bad + 1;
    }
    size_t i = 0;
    // Per-(figure, mode) running maximum for CDF rows: the ms column must
    // be non-decreasing within one distribution's series.
    std::map<std::string, double> cdf_floor;
    for (const Value& row : rows->items()) {
        if (!row.is_object() || row.size() == 0) {
            std::fprintf(stderr, "%s: row %zu is not a non-empty object\n",
                         path.c_str(), i);
            ++bad;
            ++i;
            continue;
        }
        for (const auto& [key, v] : row.members()) {
            if (v.is_number() || v.is_string() || v.is_bool()) continue;
            std::fprintf(stderr, "%s: row %zu key \"%s\" is not scalar\n",
                         path.c_str(), i, key.c_str());
            ++bad;
        }
        if (row.find("p50_ms") != nullptr || row.find("p95_ms") != nullptr ||
            row.find("p99_ms") != nullptr) {
            auto p50 = row.get_number("p50_ms");
            auto p95 = row.get_number("p95_ms");
            auto p99 = row.get_number("p99_ms");
            if (!p50 || !p95 || !p99) {
                std::fprintf(stderr,
                             "%s: row %zu has partial/non-numeric "
                             "p50_ms/p95_ms/p99_ms\n",
                             path.c_str(), i);
                ++bad;
            } else if (!(*p50 <= *p95 && *p95 <= *p99) || *p50 < 0) {
                std::fprintf(stderr,
                             "%s: row %zu percentiles out of order "
                             "(p50=%g p95=%g p99=%g)\n",
                             path.c_str(), i, *p50, *p95, *p99);
                ++bad;
            }
        }
        if (row.get_string("mode").value_or("") == "upgrade") {
            auto ms = row.get_number("upgrade_ms");
            auto lost = row.get_number("routes_lost");
            auto flinch = row.get_number("fib_flinch_deletes");
            if (!ms || *ms < 0 || !lost || !flinch) {
                std::fprintf(stderr,
                             "%s: row %zu upgrade row missing/invalid "
                             "upgrade_ms/routes_lost/fib_flinch_deletes\n",
                             path.c_str(), i);
                ++bad;
            } else if (*lost != 0 || *flinch != 0) {
                std::fprintf(stderr,
                             "%s: row %zu upgrade was not hitless "
                             "(routes_lost=%g fib_flinch_deletes=%g)\n",
                             path.c_str(), i, *lost, *flinch);
                ++bad;
            }
        }
        if (row.get_string("schedule").value_or("") == "process_kill") {
            auto conv = row.find("converged");
            auto flinch = row.get_number("fib_flinch_deletes");
            if (conv == nullptr || !conv->is_bool() || !flinch) {
                std::fprintf(stderr,
                             "%s: row %zu process_kill row missing "
                             "converged/fib_flinch_deletes\n",
                             path.c_str(), i);
                ++bad;
            } else if (!conv->as_bool() || *flinch != 0) {
                std::fprintf(stderr,
                             "%s: row %zu SIGKILL chaos did not reconverge "
                             "cleanly (fib_flinch_deletes=%g)\n",
                             path.c_str(), i, *flinch);
                ++bad;
            }
        }
        if (row.find("point") != nullptr) {
            auto measured = row.get_number("measured");
            auto want = meta != nullptr ? meta->get_number("test_routes")
                                        : std::nullopt;
            auto avg = row.get_number("avg_ms");
            auto lo = row.get_number("min_ms");
            auto hi = row.get_number("max_ms");
            if (!measured || !want || *measured != *want || !avg || !lo ||
                !hi || *avg < *lo - 1e-9 || *avg > *hi + 1e-9) {
                std::fprintf(stderr,
                             "%s: row %zu profiling point not measured for "
                             "every test route, or avg outside [min, max]\n",
                             path.c_str(), i);
                ++bad;
            }
        }
        if (row.find("pct") != nullptr) {
            auto pct = row.get_number("pct");
            auto ms = row.get_number("ms");
            if (!pct || !ms || *pct < 0 || *pct > 100 || *ms < 0) {
                std::fprintf(stderr,
                             "%s: row %zu bad CDF point (pct must be in "
                             "[0,100], ms >= 0)\n",
                             path.c_str(), i);
                ++bad;
            } else {
                std::string series =
                    row.get_string("figure").value_or("") + "/" +
                    row.get_string("mode").value_or("");
                auto [it, fresh] = cdf_floor.emplace(series, *ms);
                if (!fresh) {
                    if (*ms + 1e-9 < it->second) {
                        std::fprintf(stderr,
                                     "%s: row %zu CDF series \"%s\" not "
                                     "monotonic (%g ms after %g ms)\n",
                                     path.c_str(), i, series.c_str(), *ms,
                                     it->second);
                        ++bad;
                    } else {
                        it->second = *ms;
                    }
                }
            }
        }
        ++i;
    }
    return bad;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr, "usage: validate_bench BENCH_*.json...\n");
        return 2;
    }
    int bad = 0;
    for (int i = 1; i < argc; ++i) {
        int n = check_file(argv[i]);
        if (n == 0) std::printf("%s: ok\n", argv[i]);
        bad += n;
    }
    return bad == 0 ? 0 : 1;
}
