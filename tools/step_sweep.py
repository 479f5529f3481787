"""Count the Newton steps, joint passes and CG products of solve_dirichlet
over a fixed grid of problems, with totals.

    PYTHONPATH=src python tools/step_sweep.py [--eps-start K] [--rows]

The grid: the 1D intervals of 128, 512 and 2048 nodes, the 24^2 box and
the 24-ball (all on the fractional kernel, at alpha = 0.5 and 1.5), times
the Young functions log_perturbed (2, 1), |s|^2.5, |s|^3, |s|^4,
|s|^2/2 + |s|^4/2 and log_perturbed (2.5, -0.5), times the bump data of
radius half the inradius at heights 1e-3, 1 and 1e3: 180 solves at the
default tol.

Prints one line per grid and Young function: the steps of its six solves
(alpha 0.5 then 1.5, each at the three heights), then its passes and
products summed over them, with "!" after a count of a solve that did
not converge.  With --rows it prints one line per solve instead.  The
last line is the totals.  --eps-start sets solvers._EPS_START, the first
relaxation of a solve from zero, for the sweep that chose it.
"""

from __future__ import annotations

import argparse

from nlorlicz import assemble, bump, make_grid, make_kernel, make_young, solve_dirichlet
from nlorlicz import solvers

GRIDS = {
    "1d-128": ("interval", 128, (-1.0, 1.0)),
    "1d-512": ("interval", 512, (-1.0, 1.0)),
    "1d-2048": ("interval", 2048, (-1.0, 1.0)),
    "box-24": ("box", 24, (-1.0, 1.0, -1.0, 1.0)),
    "ball-24": ("ball", 24, (0.0, 0.0, 1.0)),
}
YOUNGS = {
    "log(2,1)": ("log_perturbed", {"p": 2.0, "r": 1.0}),
    "|s|^2.5": ("power", {"p": 2.5}),
    "|s|^3": ("power", {"p": 3.0}),
    "|s|^4": ("power", {"p": 4.0}),
    "s2+s4": ("power_sum", {"terms": [(0.5, 2.0), (0.5, 4.0)]}),
    "log(2.5,-0.5)": ("log_perturbed", {"p": 2.5, "r": -0.5}),
}
ALPHAS = (0.5, 1.5)
HEIGHTS = (1e-3, 1.0, 1e3)


def counted_solve(asm, f):
    """(report, joint passes, CG products) of solve_dirichlet(asm, f)."""
    counts = {"passes": 0, "products": 0}
    joint, pcg = solvers.E_and_gradient, solvers._pcg

    def counted_joint(*args):
        counts["passes"] += 1
        return joint(*args)

    def counted_pcg(apply, *args, **kwargs):
        def counted_apply(v):
            counts["products"] += 1
            return apply(v)
        return pcg(counted_apply, *args, **kwargs)

    solvers.E_and_gradient, solvers._pcg = counted_joint, counted_pcg
    try:
        rep = solve_dirichlet(asm, f)
    finally:
        solvers.E_and_gradient, solvers._pcg = joint, pcg
    return rep, counts["passes"], counts["products"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--eps-start", type=float, default=None)
    parser.add_argument("--rows", action="store_true")
    args = parser.parse_args(argv)
    if args.eps_start is not None:
        solvers._EPS_START = args.eps_start
    totals = [0, 0, 0, 0]  # steps, passes, products, unconverged
    for gname, spec in GRIDS.items():
        grid = make_grid(*spec)
        for yname, (family, params) in YOUNGS.items():
            steps, passes, products = [], 0, 0
            for alpha in ALPHAS:
                asm = assemble(grid, make_kernel("fractional", dim=grid.dim, alpha=alpha),
                               make_young(family, **params))
                for height in HEIGHTS:
                    f = bump(grid, grid.center, 0.5 * grid.inradius, height)
                    rep, n_pass, n_prod = counted_solve(asm, f)
                    mark = "" if rep.converged else "!"
                    steps.append(f"{rep.iterations}{mark}")
                    passes, products = passes + n_pass, products + n_prod
                    totals = [totals[0] + rep.iterations, totals[1] + n_pass,
                              totals[2] + n_prod, totals[3] + (not rep.converged)]
                    if args.rows:
                        print(f"{gname:8s} {yname:14s} alpha={alpha:<4g} height={height:<6g} "
                              f"steps={rep.iterations}{mark} passes={n_pass} products={n_prod}",
                              flush=True)
            if not args.rows:
                print(f"{gname:8s} {yname:14s} steps {' '.join(f'{s:>4s}' for s in steps)}"
                      f"  passes {passes:4d}  products {products:5d}", flush=True)
    print(f"total steps {totals[0]} passes {totals[1]} products {totals[2]} "
          f"unconverged {totals[3]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
