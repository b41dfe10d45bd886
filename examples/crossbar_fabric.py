#!/usr/bin/env python
"""Buffered crossbar tour: topology figures, CGU/CPG, buffer sizing.

Reproduces the paper's two architecture figures as live renderings of
the simulator state (Figure 1: CIOQ, Figure 2: buffered crossbar with
N=3), then runs CGU and CPG and sweeps the crosspoint buffer capacity
B(C) to show how little crosspoint memory the competitive guarantees
need — the guarantee holds at B(C)=1, which is why buffered crossbars
"significantly decrease the scheduling overhead" (Section 1) without
large fabric memories.

Run:  python examples/crossbar_fabric.py [--slots N] [--seed S]
"""

import argparse
import sys

from repro import (
    CGUPolicy,
    CPGPolicy,
    CIOQSwitch,
    CrossbarSwitch,
    SwitchConfig,
    crossbar_opt,
    render_cioq,
    render_crossbar,
    run_crossbar,
)
from repro.analysis import print_table, ratio_of
from repro.scenarios import ScenarioSpec, run_scenario
from repro.switch import Packet


def show_figures() -> None:
    """Figures 1 and 2 of the paper, rendered from simulator state."""
    config = SwitchConfig.square(3, speedup=1, b_in=3, b_out=3, b_cross=1)

    cioq = CIOQSwitch(config)
    # Populate a few queues so the figure shows occupancy.
    for pid, (i, j) in enumerate([(0, 0), (0, 1), (1, 2), (2, 0), (2, 0)]):
        cioq.enqueue_arrival(Packet(pid, 1.0, 0, i, j))
    print(render_cioq(cioq, title="Figure 1: CIOQ switch, N = 3"))

    xbar = CrossbarSwitch(config)
    for pid, (i, j) in enumerate([(0, 2), (1, 0), (1, 1), (2, 2)]):
        xbar.enqueue_arrival(Packet(100 + pid, 1.0, 0, i, j))
    xbar.cross[0][1].push(Packet(200, 1.0, 0, 0, 1))
    xbar.out[2].push(Packet(201, 1.0, 0, 1, 2))
    print(render_crossbar(xbar, title="Figure 2: buffered crossbar switch, N = 3"))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slots", type=int, default=40,
                        help="arrival slots per trace (default 40)")
    parser.add_argument("--seed", type=int, default=3,
                        help="base traffic seed (default 3)")
    args = parser.parse_args(argv if argv is not None else [])

    show_figures()

    n = 3
    spec = ScenarioSpec(
        name="crossbar-fabric",
        model="crossbar",
        switch={"n_in": n, "n_out": n, "speedup": 1, "b_in": 3, "b_out": 3,
                "b_cross": 1},
        traffic_params={"load": 1.3},
        values="pareto",
        value_params={"shape": 1.5},
        policies=({"name": "cpg"},),
        slots=args.slots,
        seeds=(args.seed, args.seed + 1),
    )
    base = spec.build_config()
    heavy = spec.build_traffic()

    # CGU vs CPG on the same weighted trace (CGU ignores values).
    trace = heavy.generate(args.slots, seed=args.seed)
    cgu = run_crossbar(CGUPolicy(), base, trace)
    cpg = run_crossbar(CPGPolicy(), base, trace)
    opt = crossbar_opt(trace, base)
    print_table(
        [
            {
                "policy": r.policy_name,
                "benefit": round(r.benefit, 2),
                "sent": r.n_sent,
                "preempted": r.n_preempted,
                "ratio vs OPT": round(opt.benefit / r.benefit, 4),
            }
            for r in (cgu, cpg)
        ],
        title=f"Heavy-tailed (Pareto) values on a {n}x{n} buffered crossbar "
              f"(OPT benefit {opt.benefit:.2f})",
    )
    print(
        "CGU is value-blind; CPG's thresholded preemption recovers most\n"
        "of the value gap to OPT.\n"
    )

    # The same spec, swept over B(C): one scenario run per capacity.
    rows = []
    for bc in (1, 2, 4):
        run = run_scenario(
            spec.with_overrides(switch={**spec.switch, "b_cross": bc}))
        benefit = {(m["seed"], m["policy"]): m["benefit"]
                   for m in run.metrics}
        for seed in spec.seeds:
            onl, opt = benefit[seed, "cpg"], benefit[seed, "OPT"]
            rows.append({"b_cross": bc, "seed": seed,
                         "benefit": round(onl, 3), "opt": round(opt, 3),
                         "ratio": round(ratio_of(opt, onl), 4)})
    print_table(rows, title="CPG vs OPT as crosspoint capacity B(C) grows (T10)")
    print(
        "The competitive guarantee already holds at B(C)=1; bigger\n"
        "crosspoint buffers buy only marginal empirical benefit."
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
