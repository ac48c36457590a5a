#!/usr/bin/env python3
"""Check that the IFMA limb kernels stay inline in the IFMA tier objects.

    python3 tools/check_ifma_inline.py NM LIBMQX_ARCHIVE

The IFMA NTT and BLAS tiers are fast only while GCC inlines the limb
kernels into their loops: an out-of-line copy passes limbs and ModCtx
through memory, and GCC's inline budget can push one out after an
unrelated change (a StageTwiddles constructor did). The check lists the
symbols `nm -C -A` reports for the archive's ntt_avx512_ifma.cc.o and
blas_avx512_ifma.cc.o members and fails on any symbol of the kernels
below; a kernel that needs it is marked MQX_FORCE_INLINE.
"""

import re
import subprocess
import sys

KERNELS = ("mulModShoupIfmaV", "mulModBarrettIfmaV", "toLimbs52",
           "mulLimbs52", "windowLimbs52", "StageTwiddles", "PairTwiddles")
MEMBERS = ("ntt_avx512_ifma.cc.o", "blas_avx512_ifma.cc.o")
KERNEL_RE = re.compile(r"::(%s)[<(]" % "|".join(KERNELS))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    nm, archive = sys.argv[1], sys.argv[2]
    out = subprocess.run([nm, "-C", "-A", archive], check=True,
                         capture_output=True, text=True).stdout
    seen = set()
    bad = []
    for line in out.splitlines():
        # "<archive>:<member>:<value> <type> <symbol>"
        parts = line.split(":", 2)
        if len(parts) < 3 or parts[1] not in MEMBERS:
            continue
        seen.add(parts[1])
        if KERNEL_RE.search(parts[2]):
            bad.append("%s: %s" % (parts[1], parts[2].strip()))
    missing = [m for m in MEMBERS if m not in seen]
    if missing:
        print("no symbols found for %s in %s" % (", ".join(missing), archive))
        return 1
    for b in bad:
        print("out of line: " + b)
    if bad:
        print("%d out-of-line IFMA kernel symbol(s); mark the kernel "
              "MQX_FORCE_INLINE" % len(bad))
        return 1
    print("IFMA kernels inline in %s" % ", ".join(MEMBERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
