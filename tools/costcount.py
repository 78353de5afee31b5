"""Deterministic cost counts: bytecode instructions and Python calls per op.

    python3.12 tools/costcount.py [--check FILE | --record FILE] [--live]

Each axis runs a fixed recipe (DTR, 8 000 nodes, seed 7, 8 servers, D2-Tree)
in a fresh interpreter (``PYTHONHASHSEED=0``) and counts ``sys.monitoring``
INSTRUCTION and PY_START events over its timed part, by the layer of the code
object's module: ``sim_replay`` is ``ClusterSimulator.run()`` over 20 000
ops, ``logged_replay`` the same with an ``OpHistory``, ``setup`` trace
generation plus construction (partition included). One CPython build gives
the same counts every run; a count does not price what C does, so the wall
clock stays the claim. ``--check FILE`` exits 1 when a count per op rose
over 1 % above FILE's for this minor version; ``--record FILE`` writes them.
``--live`` prints, ungated (it depends on loop timing), one
``serve_saturated``-shaped run (RA, 4 000 ops, 4 servers, 8 outstanding)
counted over ``LoadGenerator.run``. Its heartbeat interval and timeout are
stretched (``LIVE_HEARTBEAT``): counting slows the run about a hundredfold,
to seconds, and at the default 50 ms interval the heartbeats of those
seconds would be priced as request-path work that an uncounted run hardly
does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AXES = ("sim_replay", "logged_replay", "setup")
KINDS = ("instructions", "calls")
TOLERANCE = 0.01
#: ``--live``'s heartbeat interval and eviction timeout, seconds.
LIVE_HEARTBEAT = (1.0, 5.0)
#: Layer -> the path fragments of its modules; first match wins, no match is "stdlib".
LAYERS = (
    ("trace decode", ("repro/traces/",)),
    ("route planning", ("repro/simulation/routing.py", "repro/cluster/index.py",
                        "repro/cluster/cache.py", "repro/cluster/client.py")),
    ("event loop", ("repro/simulation/runner.py",)),
    ("service/lock model", ("repro/cluster/locks.py", "repro/cluster/mds.py")),
    ("partition + adjustment", ("repro/core/", "repro/placement.py")),
    ("stats", ("repro/simulation/stats.py", "repro/numeric.py")),
    ("op log", ("repro/chaos/history.py",)),
    ("frame codec", ("repro/cluster/messages.py", "repro/transport/wire.py")),
    ("framed link", ("repro/transport/asyncio_net.py",)),
    ("live MDS", ("repro/transport/live.py",)),
    ("load generator", ("repro/transport/loadgen.py",)),
    ("asyncio", ("/asyncio/",)),
    ("repro other", ("repro/",)),
)


def layer_of(filename: str) -> str:
    for layer, fragments in LAYERS:
        if any(fragment in filename for fragment in fragments):
            return layer
    return "stdlib"


def count(body) -> dict:
    """Run ``body(start, stop)`` with INSTRUCTION and PY_START events on
    between its two calls; per-layer totals plus its op count."""
    mon, events = sys.monitoring, sys.monitoring.events
    instructions, calls = {}, {}
    get_i, get_c = instructions.get, calls.get

    def on_instruction(code, offset):
        instructions[code] = get_i(code, 0) + 1

    def on_start(code, offset):
        calls[code] = get_c(code, 0) + 1

    tool = mon.PROFILER_ID
    mon.use_tool_id(tool, "costcount")
    mon.register_callback(tool, events.INSTRUCTION, on_instruction)
    mon.register_callback(tool, events.PY_START, on_start)
    ops = body(lambda: mon.set_events(tool, events.INSTRUCTION | events.PY_START),
               lambda: mon.set_events(tool, 0))
    mon.free_tool_id(tool)
    totals = {"ops": ops, "instructions": {}, "calls": {}}
    for kind, counts in zip(KINDS, (instructions, calls)):
        for code, n in counts.items():
            layer = layer_of(code.co_filename)
            totals[kind][layer] = totals[kind].get(layer, 0) + n
    return totals


def recipe(axis: str):
    """The axis' ``body(start, stop)``, which returns its op count."""
    from dataclasses import replace

    from repro import registry
    from repro.simulation.runner import ClusterSimulator, SimulationConfig
    from repro.traces import DatasetProfile, TraceGenerator

    def workload(profile, ops):
        profile = profile.scaled(num_operations=ops)
        return TraceGenerator(replace(profile, seed=profile.seed + 7)).generate()

    def simulator(inputs):
        return ClusterSimulator(registry.create("d2-tree"), inputs, 8, SimulationConfig(seed=7))

    if axis == "live":
        from repro.transport.live import LiveConfig
        from repro.transport.loadgen import LoadConfig, LoadGenerator
        from repro.transport.serve import serve_workload
        inputs = workload(DatasetProfile.ra(8_000), 4_000)

        def body(start, stop):
            run = LoadGenerator.run

            async def counted(generator):
                start()
                try:
                    return await run(generator)
                finally:
                    stop()

            LoadGenerator.run = counted
            report = serve_workload(
                registry.create("d2-tree"), inputs,
                LiveConfig(num_servers=4, num_monitors=3, seed=7,
                           heartbeat_interval=LIVE_HEARTBEAT[0],
                           heartbeat_timeout=LIVE_HEARTBEAT[1]),
                LoadConfig(rate=1e6, max_inflight=8, seed=7),
            )
            if report.failed or report.indeterminate or report.violations:
                raise SystemExit(f"live run did not settle cleanly: {report.to_dict()}")
            return report.operations
        return body
    if axis == "setup":
        def body(start, stop):
            start()
            inputs = workload(DatasetProfile.dtr(8_000), 20_000)
            simulator(inputs).close()
            stop()
            return len(inputs.trace)
        return body
    sim = simulator(workload(DatasetProfile.dtr(8_000), 20_000))
    if axis == "logged_replay":
        from repro.chaos.history import OpHistory
        sim.control.history = OpHistory()

    def body(start, stop):
        start()
        result = sim.run()
        stop()
        return result.operations
    return body


def measure(axis: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    return json.loads(subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--axis", axis],
        env=env, check=True, capture_output=True, text=True, cwd=ROOT).stdout)


def show(axis: str, totals: dict) -> None:
    ops = totals["ops"]
    print(f"{axis:<14} {ops:>6} ops  "
          f"{sum(totals['instructions'].values()) / ops:9.1f} instructions/op  "
          f"{sum(totals['calls'].values()) / ops:8.2f} calls/op")
    for layer in [name for name, _ in LAYERS] + ["stdlib"]:
        if layer in totals["instructions"]:
            print(f"  {layer:<24} {totals['instructions'][layer] / ops:9.1f}"
                  f"  {totals['calls'].get(layer, 0) / ops:8.2f}")


def main(argv) -> int:
    if argv[:1] == ["--axis"]:
        json.dump(count(recipe(argv[1])), sys.stdout, sort_keys=True)
        return 0
    if sys.version_info < (3, 12):
        raise SystemExit("costcount needs CPython 3.12+ (sys.monitoring)")
    version = "%d.%d" % sys.version_info[:2]
    print(f"costcount, CPython {version}, PYTHONHASHSEED=0: instructions/op, calls/op")
    measured = {}
    for axis in AXES:
        totals = measure(axis)
        show(axis, totals)
        measured[axis] = {"ops": totals["ops"]}
        measured[axis].update((kind, sum(totals[kind].values())) for kind in KINDS)
    status = 0
    if "--check" in argv:
        recorded = json.load(open(argv[argv.index("--check") + 1]))[version]
        for axis, kind in ((axis, kind) for axis in AXES for kind in KINDS):
            was, now = (book[axis][kind] / book[axis]["ops"] for book in (recorded, measured))
            if now > was * (1 + TOLERANCE):
                print(f"::error title=cost count rose::{axis} {kind}/op {now:.2f} "
                      f"is over 1 % above the recorded {was:.2f}")
                status = 1
    if "--record" in argv:
        path = argv[argv.index("--record") + 1]
        book = json.load(open(path)) if os.path.exists(path) else {}
        book[version] = measured
        with open(path, "w") as out:
            out.write(json.dumps(book, indent=2, sort_keys=True) + "\n")
    if "--live" in argv:
        print("ungated, event-loop timing dependent:")
        show("live", measure("live"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
