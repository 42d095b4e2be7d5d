#!/usr/bin/env python3
"""Print where each phase of a traced run spent its time.

    python3 veilbench/report.py veilbench/.work/trace-token-dharx-seed1.json

For every phase (compile, setup, tx) of the traced unit: the phase's wall
time and each layer's self time, at reference machine speed (see speed.py),
largest first.  The self times of a phase add up to its wall time, except
where lowering workers overlap in time.
"""
import json
import sys


def main(path: str, top: int = 12):
    with open(path) as f:
        data = json.load(f)
    factor = data["speed_factor"]
    for phase, wall in sorted(data["phase_wall_s"].items()):
        layers = data["phase_self_s"][phase]
        print(f"\n{data['workload']} seed {data['seed']}: {phase}, "
              f"wall {wall * factor:.4f} s, layers sum "
              f"{sum(layers.values()) * factor:.4f} s")
        for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1])[:top]:
            print(f"  {layer:32s} {self_s * factor:10.4f} s "
                  f"{100 * self_s / wall:5.1f}%")


if __name__ == "__main__":
    main(sys.argv[1])
