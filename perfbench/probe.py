"""Set-up probe: a fresh interpreter that does one workload's set-up,
prints ``ready`` and exits.  The parent times spawn-to-ready.

    python perfbench/probe.py reproduce|lint_project
    python perfbench/probe.py procure STORE_DIR

``reproduce`` and ``lint_project`` import what their command imports
before it starts work; ``procure`` also fills a fresh campaign store at
``STORE_DIR`` with the fitted parameters of all twelve platforms.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    workload = argv[0]
    import repro.cli  # noqa: F401  -- every ``archline`` command pays this.

    if workload == "reproduce":
        import repro.experiments.registry  # noqa: F401
    elif workload == "lint_project":
        import repro.lint.cli  # noqa: F401
        import repro.lint.project  # noqa: F401
    elif workload == "procure":
        from repro.experiments.common import CampaignSettings, fitted_platform_config
        from repro.machine.platforms import PLATFORM_IDS
        from repro.store.store import CampaignStore

        store = CampaignStore(argv[1])
        for pid in PLATFORM_IDS:
            fitted_platform_config(pid, CampaignSettings(), store=store)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
