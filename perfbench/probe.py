"""Set-up probe: run in a fresh interpreter, it stops at the first op's door.

Prints CLOCK_MONOTONIC readings (shared by all processes on the host) taken
when the script starts, after `import gamedim` and after the first
`build_eu_game()`, so the launcher can split set-up into start-up, import and
first build.
"""

import time

started = time.monotonic()
import gamedim  # noqa: E402

imported = time.monotonic()
gamedim.build_eu_game()
ready = time.monotonic()

import json  # noqa: E402

print(json.dumps({"started": started, "imported": imported, "ready": ready}))
