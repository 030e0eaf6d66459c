"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run only after a change that is meant to alter the outputs, and say so in the
change: the references pin the closed-form columns, row names, order and the
``pass``/``regime`` values of every workload (``inequality`` at seed 0).
"""

import sys

import run


def main() -> int:
    run._import_package()
    for name in run.WORKLOAD_NAMES:
        wl = run.workload(name, 0)
        p = run.run_pass(wl.argv)
        if p.exit_code != 0:
            print(f"{name}: exit {p.exit_code}\n{p.stderr}", file=sys.stderr)
            return 1
        wl.reference.write_text(p.stdout, encoding="utf-8")
        print(f"wrote {wl.reference} ({p.stdout.count(chr(10)) - 1} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
