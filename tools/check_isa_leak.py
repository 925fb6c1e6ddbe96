#!/usr/bin/env python3
"""Check that optional-ISA code in an object file stays in its own functions.

Two objects build instructions that not every x86-64 CPU has, and pick them
at run time from the CPU's feature bits:

  * tensor/ops.cpp builds its GEMM microkernel twice, once for baseline
    x86-64 (SSE) and once inside a `#pragma GCC target("avx2")` region
    (--kernel avx2, the default);
  * ps/param_server.cpp asks for a sparse push's cache lines in a writable
    state with `prefetchw`, called only where the CPU reports PRFCHW
    (--kernel prfchw).

Tests on a capable machine cannot see such an instruction leak into code
every CPU runs, but a CPU without the feature would die on it with SIGILL.
This disassembles the object and fails when

  * any function whose name does not contain the kernel's name holds one of
    its instructions (VEX-encoded `v*` for avx2, `prefetchw` for prfchw);
  * an avx2 kernel holds a fused multiply-add (`vfmadd*` and kin), which
    would round once where the summation contract rounds twice;
  * none of the kernel's instructions is found at all, so the check cannot
    pass vacuously (a target region that did not take effect, or a prefetch
    loop the compiler deleted).

Usage: tools/check_isa_leak.py [--kernel avx2|prfchw] OBJECT
"""

import argparse
import re
import subprocess
import sys

FUNC = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN = re.compile(r"^\s+[0-9a-f]+:\s+(\S+)")
FUSED = re.compile(r"^vf(n)?m(add|sub)")

# kernel name -> (description of its instructions, test on one mnemonic)
KERNELS = {
    "avx2": ("VEX", lambda insn: insn.startswith("v")),
    "prfchw": ("prefetchw", lambda insn: insn == "prefetchw"),
}


def functions(obj):
    """Yields (demangled name, [mnemonics]) per function in `obj`."""
    out = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", obj],
                         check=True, capture_output=True, text=True).stdout
    name, insns = None, []
    for line in out.splitlines():
        m = FUNC.match(line)
        if m:
            if name is not None:
                yield name, insns
            name, insns = m.group(1), []
            continue
        m = INSN.match(line)
        if m and name is not None:
            insns.append(m.group(1))
    if name is not None:
        yield name, insns


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--kernel", choices=sorted(KERNELS), default="avx2")
    parser.add_argument("object")
    args = parser.parse_args(argv[1:])
    what, is_kernel_insn = KERNELS[args.kernel]
    errors, kernel_insns = [], 0
    for name, insns in functions(args.object):
        found = [i for i in insns if is_kernel_insn(i)]
        if args.kernel in name:
            kernel_insns += len(found)
            fused = sorted({i for i in found if FUSED.match(i)})
            if fused:
                errors.append(f"{name}: fused multiply-add {', '.join(fused)}")
        elif found:
            errors.append(f"{name}: {len(found)} {what} instructions outside the "
                          f"{args.kernel} kernel, e.g. {', '.join(sorted(set(found))[:5])}")
    if kernel_insns == 0:
        errors.append(f"no {what} instruction in any {args.kernel} kernel function: "
                      "the kernel was not built as written")
    for e in errors:
        print(f"check_isa_leak: {e}", file=sys.stderr)
    if not errors:
        print(f"check_isa_leak: ok, {kernel_insns} {what} instructions, "
              f"all in the {args.kernel} kernel")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
