#!/usr/bin/env python3
"""Dead-code gate: report library functions that no binary links.

Builds the repository (tests, benches, examples) and the perfbench
`facebench` binary with per-function sections at -O0, links every
executable with --gc-sections, then lists each strong text symbol (`T`) of
libface_core.a that survives in none of them. Exits 1 when any is found.

    python3 tools/deadcode.py [--build-dir build-deadcode]

-O0 keeps every call a real reference (nothing is inlined away), and
-DNDEBUG matches the release configuration: FACE_DCHECK's release branch is
the only caller of internal::DcheckFailedOnce. Tests count as consumers;
facebench counts too because a few helpers serve only the benchmark.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLAGS = [
    "-DCMAKE_BUILD_TYPE=DeadCode",  # no per-configuration flags
    "-DCMAKE_CXX_FLAGS=-O0 -DNDEBUG -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def symbols(path, defined_types):
    """Mangled names of the symbols in `path` whose nm type is listed."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in defined_types:
            names.add(parts[2])
    return names


def executables(directory):
    found = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            with open(path, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(path)
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-deadcode"))
    args = ap.parse_args()

    jobs = str(os.cpu_count() or 2)
    main_dir = os.path.join(args.build_dir, "main")
    bench_dir = os.path.join(args.build_dir, "perfbench")
    run(["cmake", "-S", ROOT, "-B", main_dir] + FLAGS)
    run(["cmake", "--build", main_dir, "-j", jobs])
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", bench_dir] +
        FLAGS)
    run(["cmake", "--build", bench_dir, "-j", jobs,
         "--target", "facebench"])

    library = symbols(os.path.join(main_dir, "libface_core.a"), {"T"})
    binaries = executables(main_dir) + [os.path.join(bench_dir, "facebench")]
    linked = set()
    for path in binaries:
        linked |= symbols(path, {"T", "t", "W", "w"})

    dead = sorted(library - linked)
    print(f"deadcode: {len(library)} library functions, "
          f"{len(binaries)} binaries, {len(dead)} unlinked")
    if dead:
        demangled = subprocess.run(["c++filt"], input="\n".join(dead),
                                   check=True, capture_output=True,
                                   text=True).stdout.splitlines()
        for name in sorted(demangled):
            print(f"  {name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
