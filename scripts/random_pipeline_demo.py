"""Random walk through the full machinery: build a module with a planted
two-prime cyclic isogeny, split it into its p-parts, apply every
Atkin-Lehner involution, and print a compact trace."""
import random
import sys
import time

from dforge import (
    ALElement,
    CertificateCache,
    ModuliPoint,
    al_apply,
    al_group,
    dual,
    project_p,
    verify_isogeny,
)
from dforge.errors import CMSuspected
from dforge.extfield import ExtField
from dforge.fields import Fq
from dforge.randgen import two_prime_point
from dforge.textform import ideal_to_text, skew_to_text


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rng = random.Random(seed)
    field = ExtField(Fq(3))
    certs = CertificateCache()
    t0 = time.time()
    while True:
        try:
            phi, mid, tgt, h, g1, chi, p1, p2 = two_prime_point(rng, field)
            cert = certs(phi, 2)
            break
        except CMSuspected:
            continue
    iso = verify_isogeny(phi, tgt, chi, cert)
    deg, n1, n2 = iso.degree_parts()
    print(f"phi_T = {skew_to_text(phi.phiT)}")
    print(f"chi   = {skew_to_text(chi)}")
    print(f"deg   = {ideal_to_text(deg)} (cyclic: {n2.is_unit()})")
    for p in (p1, p2):
        midm, part, coprime = project_p(iso, p, certificate_factory=certs)
        print(f"  {ideal_to_text(p)}-part: {skew_to_text(part.mu)} "
              f"of degree {ideal_to_text(part.degree_ideal())}")
    x = ModuliPoint(iso).validate()
    for w in al_group(deg):
        y = al_apply(w, x, certificate_factory=certs)
        js, jt = y.theta_pair()
        print(f"  w_{ideal_to_text(w.m)} moves the point to "
              f"theta = ({js!r}, {jt!r})")
    d = dual(iso, certs)
    print(f"dual  = {skew_to_text(d.mu)}")
    print(f"done in {time.time() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
