"""Set-up probe: start, import the package, make one round trip, say "ready".

Usage: python3 bench/probe.py SRC_DIR STATE REPORT

The caller times from process start to the "ready" line, which is the
set-up a user of the command-line tool pays before the first answer.
"""

import contextlib
import io
import sys

src, state, report = sys.argv[1:4]
sys.path.insert(0, src)

from lodecomp.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    codes = (
        main(["decompose", state, "--format", "json", "-o", report]),
        main(["verify", state, report]),
    )
print("ready" if codes == (0, 0) else f"failed {codes}", flush=True)
