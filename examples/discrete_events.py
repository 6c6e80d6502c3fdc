#!/usr/bin/env python
"""Ordered speculation: parallel discrete-event simulation (§5 future work).

Events of a closed queueing network must commit chronologically; the
ordered engine speculates on the earliest pending events, aborting on
station conflicts AND on order violations (speculating past newly created
earlier work).  The committed history is verified to be *identical* to a
strictly sequential simulation, for every allocation — then the sweep
shows how quickly ordered parallelism saturates compared to the unordered
workloads of the other examples.

Run:  python examples/discrete_events.py [seed]
"""

import sys

from repro.apps.des import DiscreteEventSimulation, QueueingNetwork, sequential_history
from repro.control import FixedController, HybridController
from repro.utils import format_table

SEED = int(sys.argv[1]) if len(sys.argv) > 1 else 0


def main() -> None:
    network = QueueingNetwork(40, avg_degree=3.0, seed=SEED)
    reference = sequential_history(network, num_jobs=60, end_time=30.0, seed=SEED + 1)
    print(f"queueing network: 40 stations, 60 jobs, {len(reference)} events\n")

    rows = []
    for label, controller in [
        ("fixed m=1 (sequential)", FixedController(1)),
        ("fixed m=4", FixedController(4)),
        ("fixed m=16", FixedController(16)),
        ("fixed m=64", FixedController(64)),
        ("hybrid (rho=30%)", HybridController(0.30)),
    ]:
        sim = DiscreteEventSimulation(network, num_jobs=60, end_time=30.0, seed=SEED + 1)
        engine = sim.make_engine(controller, seed=SEED + 2)
        result = engine.run(max_steps=10**7)
        assert sim.history == reference, "optimistic run diverged from the oracle!"
        rows.append(
            (
                label,
                len(result),
                round(len(reference) / len(result), 2),
                engine.conflict_aborts_total,
                engine.order_aborts_total,
            )
        )
    print(
        format_table(
            ["controller", "steps", "speedup", "conflict aborts", "order aborts"],
            rows,
            title="every run commits the bit-identical chronological history",
        )
    )
    print(
        "\nNote how speedup saturates while aborts explode — the ordering\n"
        "constraint caps exploitable parallelism, exactly the open problem\n"
        "the paper's §5 describes."
    )


if __name__ == "__main__":
    main()
