"""Host scaling-ceiling probe: an embarrassingly parallel pure-numpy job
(zero shared state, zero IPC, one process per slot) run at 2 and 8
workers.  On ideal hardware wall-clock is identical at both levels
(efficiency = t2/t8 = 1.0); anything below that is the HOST — core
contention, credit throttling, thermal limits — and bounds the scaling
efficiency ANY engine can demonstrate on this box.  Used to calibrate
perfbench's traced ``scaling_eff`` (``perfbench/run.py --trace 1``).

Usage: python scripts/host_scaling_probe.py [reps_per_level]
Prints one JSON line with per-level wall times and the host ceiling.
"""

import json
import multiprocessing as mp
import sys
import time


def _work(_):
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(900, 900))
    s = 0.0
    for _i in range(300):
        s += float((a @ a).trace())
    return s


def run_level(k: int) -> float:
    t0 = time.time()
    with mp.get_context("spawn").Pool(k) as p:
        p.map(_work, range(k))
    return round(time.time() - t0, 2)


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    runs = {2: [], 8: []}
    order = []
    for r in range(reps):
        order.extend((2, 8) if r % 2 == 0 else (8, 2))
    for k in order:
        time.sleep(20)
        runs[k].append(run_level(k))
    t2, t8 = min(runs[2]), min(runs[8])
    print(json.dumps({
        "metric": "host scaling ceiling (embarrassingly parallel numpy, "
                  "fixed work per worker; ideal host = 1.0)",
        "wall_2_workers": runs[2], "wall_8_workers": runs[8],
        "host_ceiling_efficiency": round(t2 / t8, 3),
    }))


if __name__ == "__main__":
    main()
