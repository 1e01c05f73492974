"""``python -m benchmarks.perf {measure|run|compare|child} ...``"""

import sys


def _main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["child"]:
        # Only the child imports numpy and the system under test.
        from benchmarks.perf import child

        return child.main(argv[1:])
    from benchmarks.perf import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(_main())
