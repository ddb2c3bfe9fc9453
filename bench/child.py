"""One gkheat command in a fresh interpreter, with set-up timestamps.

    python3 bench/child.py --src SRC --result RESULT.json [--spans SPANS.npz] \
        -- COMMAND -c CONFIG [ARGS...]

Set-up is what a fresh process does before it can simulate: import
``gkheat.cli``, parse the config, build the grid, make the initial state and
assemble the operators.  The command is then run through ``gkheat.cli.main``
exactly as the ``gkheat`` entry point runs it.  COMMAND ``setup`` stops after
set-up.  Timestamps are CLOCK_MONOTONIC nanoseconds, comparable with the
parent's.  With ``--spans`` the calls into every gkheat layer are traced
(see tracer.py).
"""

import time

T_START = time.monotonic_ns()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    command = argv[sep + 1:]
    src = Path(opts["--src"]).resolve()
    sys.path.insert(0, str(src))

    t_import0 = time.monotonic_ns()
    import gkheat.cli as cli
    from gkheat import discretization, scheme
    t_import = time.monotonic_ns()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"gkheat imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 97

    tracer = None
    if "--spans" in opts:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t_setup0 = time.monotonic_ns()
    config = Path(command[command.index("-c") + 1]).read_text(encoding="utf-8")
    manifest = cli.parse_config(config)
    grid = discretization.build_grid(manifest.params, manifest.config)
    discretization.cosine_initial(grid, manifest.config.T_b, manifest.config.T_f)
    scheme.assemble(manifest.params, grid)
    t_ready = time.monotonic_ns()

    rc = 0
    if command[0] != "setup":
        if tracer is not None:
            tracer.phase = 1
        rc = cli.main(command)
    t_done = time.monotonic_ns()
    sys.stdout.flush()

    import numpy
    import scipy
    result = {
        "t_start": T_START, "t_import0": t_import0, "t_import": t_import,
        "t_setup0": t_setup0, "t_ready": t_ready, "t_done": t_done,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.dump(opts["--spans"])
        result["counts"] = tracer.counts
        result["missing"] = tracer.missing
    Path(opts["--result"]).write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
