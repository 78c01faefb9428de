"""Central tolerance table.

Every numerical gate in the package reads from this table so that the
validation suite and the tests share a single source of truth.  Values are
absolute unless the name says otherwise.
"""

TOL = {
    # model / law checks
    "law_normalization": 1e-8,          # grid densities integrate to 1 +- this
    # linear algebra kernels
    "matrix_exp_residual": 1e-10,
    "covariance_symmetry": 1e-12,
    "riccati_residual": 1e-10,
    "linear_v_residual": 1e-12,
    # eigenpairs
    "eigenpair_residual_rel": 1e-6,     # |(A+g)phi + lam*phi| <= tol * ||phi||
    "schrodinger_boundary_mass": 1e-10,
    # closed-form solutions
    "density_normalization": 1e-6,      # integral of u(t,.) on its grid
    "shift_invariance": 1e-12,
    "affine_mass_branches_rel": 1e-10,  # Gaussian vs tabulated u0, same h(t)
    # particle identities
    "measure_identity": 1e-15,
    "compactify_mass_slack": 1e-9,
    # metric module
    "bl_small_exact": 1e-9,             # HiGHS BL values vs closed forms
    "bl_symmetry": 1e-10,
    "bl_triangle_slack": 1e-9,
    "lp_certificate_feasibility": 1e-10,  # bl_distance's certificate gate
    "lp_duality_gap_rel": 1e-7,         # (U - value) / U of a HiGHS solve
    "bl_tail_mass": 1e-12,              # reference mass dqt_estimate folds into the star
    # PDE oracle
    "pde_mass_leak": 1e-4,
    "pde_time_l1": 1e-6,                # step-doubling L1 estimate per store interval
}

# Default Euler steps per unit of time (overridable per scenario).
DEFAULT_STEPS_PER_UNIT = 400

# Default number of stored time checkpoints for particle ensembles.
DEFAULT_CHECKPOINTS = 32
