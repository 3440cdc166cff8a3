"""Set-up that every quadkit user pays in a fresh process: import the
package, run the startup self-check and build the condition and
coordinate-scheme caches.

Run as a script, it times one set-up in this fresh process and prints the
seconds on stdout; ``run.py`` starts it several times and reports the median
as ``setup_s``.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from quadkit import certificates, conditions

    conditions.run_self_check()
    for name in conditions.CONDITION_NAMES + ("CM",):
        conditions.condition_poly(name)
    certificates.ptolemy_scheme()
    certificates.r_scheme()
    certificates.t_scheme()
    # private cache of the elimination closed forms; tolerate its removal
    elim_table = getattr(certificates, "_elim_targets", None)
    if elim_table is not None:
        elim_table()


if __name__ == "__main__":
    t0 = time.perf_counter()
    setup()
    print(repr(time.perf_counter() - t0))
