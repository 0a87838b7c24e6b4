"""One traced CLI invocation: ``python3 bench/child.py OUT.json ARGV...``.

Behaves like ``python -m pzeta ARGV...`` (same stdout, same exit code) with
the tracer installed around ``pzeta.cli.main``, then writes the time spent
in ``main`` and the per-layer summary to OUT.json.  Run it with
``-X importtime`` to also learn what the imports cost.
"""

import json
import sys
from time import perf_counter

import pzeta.cli
from spans import Tracer

out_path, argv = sys.argv[1], sys.argv[2:]
with Tracer() as tracer:
    start = perf_counter()
    code = pzeta.cli.main(argv)
    main_s = perf_counter() - start
sys.stdout.flush()
with open(out_path, "w") as fh:
    json.dump({"main_s": main_s, "layers": tracer.summary()}, fh)
sys.exit(code)
