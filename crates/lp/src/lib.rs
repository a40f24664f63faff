//! # pcn-lp
//!
//! A small, dependency-free linear-programming substrate. The Flash paper
//! solves its fee-minimizing path-split program (program (1) in §3.2)
//! with "standard solvers"; since the practical instance is tiny (one
//! variable per path, `k ≤ 20–30`), a dense two-phase primal simplex
//! solves it exactly and instantly.
//!
//! * [`LinearProgram`] — builder for `min cᵀx  s.t.  Ax {≤,=,≥} b, x ≥ 0`.
//! * [`Simplex`] — two-phase simplex with Bland's anti-cycling rule, on
//!   one flat tableau kept between solves; [`LpWork`] counts its solves
//!   and pivots.
//! * [`simplex::solve`] — one solve on a throwaway [`Simplex`].
//! * [`Solution`] / [`LpError`] — results.
//!
//! ```
//! use pcn_lp::{LinearProgram, Cmp};
//! // min x + 2y  s.t.  x + y ≥ 3,  y ≤ 2,  x, y ≥ 0.  Optimum: x = 3.
//! let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
//! lp.constrain(vec![1.0, 1.0], Cmp::Ge, 3.0);
//! lp.constrain(vec![0.0, 1.0], Cmp::Le, 2.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 3.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports through returned values and serialized artifacts,
// never ad-hoc stdout; the experiment/bench binaries print, libraries do not.
// A panic aborts a million-payment run hours in, so library code
// propagates errors; a site whose invariant rules the panic out carries
// `#[expect(clippy::…, reason = "<the invariant>")]`.
#![deny(
    clippy::dbg_macro,
    clippy::print_stdout,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod simplex;

pub use simplex::{solve, Cmp, LinearProgram, LpError, LpWork, Simplex, Solution};
