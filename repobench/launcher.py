"""Run the repository's CLI, with the per-layer ledger when asked.

    python3 repobench/launcher.py serve --port 0 ...

is ``python -m repro serve --port 0 ...`` plus one thing: when
``$REPOBENCH_LEDGER_DIR`` is set, the layer wrappers of
:mod:`ledger` are installed before the CLI starts, and each process
(forked shards included) writes its spans there when it ends.  Traced
and untraced runs go through this same launcher.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if __name__ == "__main__":
    import ledger

    if os.environ.get(ledger.LEDGER_ENV):
        ledger.install_process()

    from repro.cli import main

    raise SystemExit(main(sys.argv[1:]))
