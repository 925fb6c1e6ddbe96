#!/usr/bin/env python3
"""Check that AVX2 code in an object file stays inside the AVX2 GEMM kernel.

tensor/ops.cpp builds its GEMM microkernel twice: once for baseline x86-64
(SSE) and once inside a `#pragma GCC target("avx2")` region, picked at run
time only on CPUs with AVX2.  Tests on an AVX2 machine cannot see a VEX
instruction that leaks into code every CPU runs, but a CPU without AVX2
would die on it with SIGILL.  This disassembles the object and fails when

  * any function other than the AVX2 kernel (a name containing `avx2`)
    holds a VEX-encoded (`v*`) instruction;
  * the AVX2 kernel holds a fused multiply-add (`vfmadd*` and kin), which
    would round once where the summation contract rounds twice;
  * no AVX2 kernel code is found at all, so the check cannot pass vacuously.

Usage: tools/check_isa_leak.py build/CMakeFiles/sync_switch.dir/src/tensor/ops.cpp.o
"""

import re
import subprocess
import sys

FUNC = re.compile(r"^[0-9a-f]+ <(.*)>:$")
INSN = re.compile(r"^\s+[0-9a-f]+:\s+(\S+)")
FUSED = re.compile(r"^vf(n)?m(add|sub)")


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
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    errors, kernel_vex = [], 0
    for name, insns in functions(argv[1]):
        vex = [i for i in insns if i.startswith("v")]
        if "avx2" in name:
            kernel_vex += len(vex)
            fused = sorted({i for i in vex if FUSED.match(i)})
            if fused:
                errors.append(f"{name}: fused multiply-add {', '.join(fused)}")
        elif vex:
            errors.append(f"{name}: {len(vex)} VEX instructions outside the AVX2 kernel, "
                          f"e.g. {', '.join(sorted(set(vex))[:5])}")
    if kernel_vex == 0:
        errors.append("no VEX instruction in any AVX2 kernel function: "
                      "the target region did not take effect")
    for e in errors:
        print(f"check_isa_leak: {e}", file=sys.stderr)
    if not errors:
        print(f"check_isa_leak: ok, {kernel_vex} VEX instructions, all in the AVX2 kernel")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
