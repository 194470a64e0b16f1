"""Print one sha256 per experiment report, to check reports are unchanged.

A refactor that must keep every report byte-identical is checked by
running this script on both trees and diffing the output::

    PYTHONPATH=src python tools/report_digests.py > after.txt
    (cd ../parent && PYTHONPATH=src python tools/report_digests.py) > before.txt
    diff before.txt after.txt

Without arguments it digests the default suite plus ``chaos``,
``predictive`` and ``abuse`` (in its ``--smoke`` configuration).  Named
experiments restrict the run to those.  Only experiments whose report
text prints no host time are digestible; the scale family
(``scale``, ``megascale``, ``cachebench``, ``partition``) prints wall
clocks and is refused.
"""

from __future__ import annotations

import hashlib
import sys

from repro.experiments.runner import EXPERIMENTS, run_experiment

#: opt-in experiments whose report is deterministic, and whether the
#: digest runs their smoke configuration
EXTRAS = {"chaos": False, "predictive": False, "abuse": True}


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv)
    digestible = {**{name: False for name in EXPERIMENTS}, **EXTRAS}
    unknown = [name for name in names if name not in digestible]
    if unknown:
        print(
            f"not digestible: {', '.join(unknown)}; known: {', '.join(digestible)}",
            file=sys.stderr,
        )
        return 2
    for name in names or digestible:
        text = run_experiment(name, smoke=digestible[name])
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
