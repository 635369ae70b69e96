"""Every tolerance that decides a verdict or a refusal, each named once;
thresholds inside a pivot rule, margins derived from machine epsilon and
the nearby-pair search's ``_BR_LAMBDA`` stay with their algorithms."""

# a row of Ax <= b, Ex = d or H h(x) <= 0 may miss by this; also the LP pivot entry
TOL_FEAS = 1e-9
# LP core: a reduced profit above this still improves the objective
TOL_OBJ = 1e-8
# LP core: a phase-1 optimum below -TOL_PHASE1 (1 + max|rhs|) means infeasible
TOL_PHASE1 = 1e-7
# -K_eps* test max(v) + eps sum(v) <= TOL_CONE; rank cut of the ray enumeration
TOL_CONE = 1e-9
# an LP membership (epigraph, eps-subdifferential, eps-normal) needs slack >= -this
TOL_MEMBERSHIP = 1e-7
# the zero function's conjugate is 0 on functionals of sup-norm at most this
ZERO_FN_TOL = 1e-9
# a piece or domain row within ACTIVE_TOL (1 + |value|) of the max is active
ACTIVE_TOL = 1e-9
# the exactness LP must close a subgradient's Young-Fenchel gap to this
EXACTNESS_GAP_TOL = 1e-6
# a denominator |g_i| below this leaves the ratio undefined
TOL_DIV = 1e-9
# a sample whose ratio differences all lie within this ties the candidate
ZERO_DIFF_TOL = 1e-12
# phi_i = f_i - nu_i g_i must vanish at xbar within PHI_ZERO_TOL (1 + max nu)
PHI_ZERO_TOL = 1e-9
# -vstar may dip this far below 0 before the composite term is refused
VSTAR_SIGN_TOL = 1e-9
# an entry whose vstar has sup-norm at most this carries no composite term
VSTAR_ZERO_TOL = 1e-12
# a residual trace's tail may rise by this per step and still converge
JITTER = 1e-9
# a Slater point maps this far inside -Y+: H h(a) <= -SLATER_MARGIN
SLATER_MARGIN = 1e-6
# Accept gate on a trace's last value, library and CLI: gamma_N = 1/N at N = 100
TOL_CONV = 1e-2
# selftest's gate: the epigraph form's scalar residual is 6/N, 0.06 at N = 100
SELFTEST_TOL_CONV = 1e-1
