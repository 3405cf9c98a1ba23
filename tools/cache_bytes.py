"""Print the bytes a bugloc cache directory holds, per kind of artifact.

An artifact is a file ``<kind>[_<project>].bin`` (see ``bugloc.cache``);
its ``.meta.json`` sidecar and the corpus record are not counted. The
ranking indexes of ``--history all`` are kinds of their own,
``index_all_<scope>``. Each kind prints one line, then the total of all of
them.

Run: python tools/cache_bytes.py DIR
"""

import sys
from pathlib import Path

KINDS = ("tokens", "idf", "index_local", "index_global", "index_docvec", "index_all_local",
         "index_all_global", "index_all_docvec", "dm", "dbow")


def kind_of(name: str) -> str | None:
    """The kind of the artifact file ``name``, or None for another file."""
    if not name.endswith(".bin"):
        return None
    stem = name[:-len(".bin")]
    for kind in KINDS:  # no kind's name followed by "_" begins another's
        if stem == kind or stem.startswith(kind + "_"):
            return kind
    return None


def sizes(directory) -> dict[str, int]:
    """Bytes per kind of the artifacts in ``directory``, every kind listed."""
    total = dict.fromkeys(KINDS, 0)
    for path in Path(directory).iterdir():
        kind = kind_of(path.name)
        if kind is not None and path.is_file():
            total[kind] += path.stat().st_size
    return total


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    by_kind = sizes(argv[0])
    width = max(map(len, KINDS))
    for kind, size in by_kind.items():
        print(f"{kind:<{width}} {size:>12,}")
    print(f"{'total':<{width}} {sum(by_kind.values()):>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
