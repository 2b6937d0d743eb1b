"""One replay in a fresh process, for peak memory.

    python3 replay_child.py <src dir> <scenario.jsonl> <trace.jsonl>

Does what ``cogloop run --trace`` does (load, run, write) and prints the
process's peak resident set size as JSON. A fresh process keeps the
benchmark's own set-up and earlier iterations out of the peak.

The peak is Linux's VmHWM, the high-water mark of this program's own
address space. ``getrusage``'s ru_maxrss would not do: it keeps the peak
of the parent the process was forked from across ``exec``.
"""

import json
import sys


def main() -> int:
    src, scenario_path, trace_path = sys.argv[1:4]
    sys.path.insert(0, src)
    from cogloop.scenario import load_scenario
    from cogloop.session import run_session, write_trace

    write_trace(run_session(load_scenario(scenario_path)), trace_path)
    with open("/proc/self/status", encoding="ascii") as status:
        # "VmHWM:    54800 kB"
        peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(json.dumps({"peak_rss_bytes": peak_kib * 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
