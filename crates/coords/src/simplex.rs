//! Nelder–Mead downhill simplex minimization.
//!
//! The paper's §4.1 has every node "executing downhill simplex algorithm"
//! locally on its own coordinate. This is the standard Nelder–Mead method
//! (reflection / expansion / contraction / shrink) implemented from scratch
//! on flat `&[f64]` points; no external optimizer crates are used.

use crate::space::MAX_DIM;

/// Options controlling a minimization run.
#[derive(Clone, Copy, Debug)]
pub struct SimplexOptions {
    /// Initial simplex edge length around the starting point.
    pub initial_step: f64,
    /// Stop when the best–worst objective spread falls below this.
    pub tolerance: f64,
    /// Hard cap on objective evaluations.
    pub max_evals: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            initial_step: 10.0,
            tolerance: 1e-3,
            max_evals: 2000,
        }
    }
}

/// Result of a minimization. The point lives inline (no allocation).
#[derive(Clone, Copy, Debug)]
pub struct SimplexResult {
    point: [f64; MAX_DIM],
    dim: usize,
    /// Objective value at the best point.
    pub value: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
}

impl SimplexResult {
    /// The best point found.
    pub fn point(&self) -> &[f64] {
        &self.point[..self.dim]
    }
}

/// `a + t·(b − a)` per component; lanes past `a.len()` stay `0.0`.
#[inline]
fn lerp(a: &[f64], b: &[f64], t: f64) -> [f64; MAX_DIM] {
    let mut out = [0.0; MAX_DIM];
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + t * (y - x);
    }
    out
}

/// Minimize `f` starting from `x0` with Nelder–Mead. Standard coefficients:
/// reflection α=1, expansion γ=2, contraction ρ=½, shrink σ=½.
///
/// `Simplex` run one lane at a time: every point it asks for is
/// evaluated at once and told back. The simplex lives in fixed stack
/// arrays, so a call allocates nothing; `f` only ever sees `x0.len()`
/// components.
///
/// # Panics
/// If `x0` is empty or longer than [`MAX_DIM`].
pub fn minimize(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: SimplexOptions,
) -> SimplexResult {
    let mut s = Simplex::new(x0, opts);
    while let Some(p) = s.ask() {
        let v = f(p);
        s.tell(v);
    }
    s.result()
}

/// Where a [`Simplex`] stands: the point it asks for next, or the end.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Evaluating initial vertex `i` (`0..=n`, in vertex order).
    Vertex(usize),
    /// Evaluating the reflected point.
    Reflect,
    /// Evaluating the expanded point (`fr` holds the reflection's value).
    Expand,
    /// Evaluating the contracted point (`fr` holds the reflection's value).
    Contract,
    /// Evaluating the shrunk vertex `order[k]` (`1..=n`).
    Shrink(usize),
    /// The budget is spent or the spread fell below the tolerance.
    Done,
}

/// Nelder–Mead as an ask/tell state machine: [`Simplex::ask`] names the
/// next point to evaluate, [`Simplex::tell`] hands its value back, and
/// the run is [`minimize`]'s loop cut at each evaluation. The caller
/// chooses when to evaluate, so several independent minimisations can
/// advance in lockstep and share one call of a lane-wise objective; each
/// sees the operations, in the order, that [`minimize`] gives it.
///
/// `evals` counts the values told. The initial `n + 1` vertices and a
/// shrink's `n` are evaluated whatever the budget; the budget and the
/// tolerance are checked before each new step, as the loop's head did.
#[derive(Debug)]
pub(crate) struct Simplex {
    pts: [[f64; MAX_DIM]; MAX_DIM + 1],
    vals: [f64; MAX_DIM + 1],
    /// Vertices best → worst by (value under `total_cmp`, vertex index):
    /// the order a stable sort of `0..=n` by value gives. Sorted once
    /// after the initial simplex and kept: a step that replaces only the
    /// worst vertex moves it to its place, a shrink (every value but the
    /// best changes) sorts again.
    order: [usize; MAX_DIM + 1],
    /// Centroid of all but the worst vertex, for the step under way.
    centroid: [f64; MAX_DIM],
    reflected: [f64; MAX_DIM],
    /// The expanded or contracted point.
    trial: [f64; MAX_DIM],
    /// The reflected point's value, once told.
    fr: f64,
    dim: usize,
    evals: usize,
    opts: SimplexOptions,
    step: Step,
}

impl Simplex {
    /// A minimisation of an objective over `x0.len()` dimensions from
    /// `x0`: the initial simplex is `x0` plus one vertex per axis,
    /// offset by `opts.initial_step`.
    ///
    /// # Panics
    /// If `x0` is empty or longer than [`MAX_DIM`].
    pub(crate) fn new(x0: &[f64], opts: SimplexOptions) -> Simplex {
        let n = x0.len();
        assert!(
            (1..=MAX_DIM).contains(&n),
            "cannot minimize over {n} dimensions (supported: 1..={MAX_DIM})"
        );
        let mut pts = [[0.0f64; MAX_DIM]; MAX_DIM + 1];
        for (i, p) in pts[..=n].iter_mut().enumerate() {
            p[..n].copy_from_slice(x0);
            if i > 0 {
                p[i - 1] += opts.initial_step;
            }
        }
        Simplex {
            pts,
            vals: [0.0; MAX_DIM + 1],
            order: [0; MAX_DIM + 1],
            centroid: [0.0; MAX_DIM],
            reflected: [0.0; MAX_DIM],
            trial: [0.0; MAX_DIM],
            fr: 0.0,
            dim: n,
            evals: 0,
            opts,
            step: Step::Vertex(0),
        }
    }

    /// The point whose value [`Simplex::tell`] takes next, or `None` once
    /// the minimisation has ended.
    #[inline]
    pub(crate) fn ask(&self) -> Option<&[f64]> {
        let p = match self.step {
            Step::Vertex(i) => &self.pts[i],
            Step::Reflect => &self.reflected,
            Step::Expand | Step::Contract => &self.trial,
            Step::Shrink(k) => &self.pts[self.order[k]],
            Step::Done => return None,
        };
        Some(&p[..self.dim])
    }

    /// The objective's value at the point [`Simplex::ask`] returned.
    ///
    /// # Panics
    /// If the minimisation has ended.
    pub(crate) fn tell(&mut self, value: f64) {
        let n = self.dim;
        self.evals += 1;
        let best = self.order[0];
        let worst = self.order[n];
        match self.step {
            Step::Vertex(i) => {
                self.vals[i] = value;
                if i < n {
                    self.step = Step::Vertex(i + 1);
                    return;
                }
                sort_from_identity(&mut self.order[..=n], &self.vals);
            }
            Step::Reflect => {
                let fr = value;
                if fr < self.vals[best] {
                    // Expansion: centroid + 2·(centroid − worst).
                    self.trial = lerp(&self.centroid[..n], &self.pts[worst], -2.0);
                    self.fr = fr;
                    self.step = Step::Expand;
                    return;
                } else if fr < self.vals[self.order[n - 1]] {
                    self.pts[worst] = self.reflected;
                    self.vals[worst] = fr;
                    reinsert_last(&mut self.order[..=n], &self.vals);
                } else {
                    // Contraction (outside if the reflection helped at
                    // all, inside otherwise).
                    let t = if fr < self.vals[worst] { -0.5 } else { 0.5 };
                    self.trial = lerp(&self.centroid[..n], &self.pts[worst], t);
                    self.fr = fr;
                    self.step = Step::Contract;
                    return;
                }
            }
            Step::Expand => {
                if value < self.fr {
                    self.pts[worst] = self.trial;
                    self.vals[worst] = value;
                } else {
                    self.pts[worst] = self.reflected;
                    self.vals[worst] = self.fr;
                }
                reinsert_last(&mut self.order[..=n], &self.vals);
            }
            Step::Contract => {
                if value < self.vals[worst].min(self.fr) {
                    self.pts[worst] = self.trial;
                    self.vals[worst] = value;
                    reinsert_last(&mut self.order[..=n], &self.vals);
                } else {
                    // Shrink everything toward the best vertex. Each
                    // vertex moves from its own components and a copy of
                    // the best, so all move before the first is evaluated.
                    let best_pt = self.pts[best];
                    for &i in &self.order[1..=n] {
                        self.pts[i] = lerp(&best_pt[..n], &self.pts[i], 0.5);
                    }
                    self.step = Step::Shrink(1);
                    return;
                }
            }
            Step::Shrink(k) => {
                self.vals[self.order[k]] = value;
                if k < n {
                    self.step = Step::Shrink(k + 1);
                    return;
                }
                sort_from_identity(&mut self.order[..=n], &self.vals);
            }
            Step::Done => panic!("a value told to a minimisation that has ended"),
        }
        self.next_step();
    }

    /// The head of the loop: stop on the budget or the tolerance, or
    /// reflect the worst vertex through the centroid of the others.
    fn next_step(&mut self) {
        let n = self.dim;
        let best = self.order[0];
        let worst = self.order[n];
        if self.evals >= self.opts.max_evals
            || (self.vals[worst] - self.vals[best]).abs() < self.opts.tolerance
        {
            self.step = Step::Done;
            return;
        }
        // Centroid of all but the worst, summed best → second-worst.
        let mut centroid = [0.0f64; MAX_DIM];
        for &i in &self.order[..n] {
            for (c, &x) in centroid[..n].iter_mut().zip(&self.pts[i]) {
                *c += x;
            }
        }
        for c in &mut centroid[..n] {
            *c /= n as f64;
        }
        self.centroid = centroid;
        // Reflection: centroid + 1·(centroid − worst).
        self.reflected = lerp(&centroid[..n], &self.pts[worst], -1.0);
        self.step = Step::Reflect;
    }

    /// The best vertex: the first minimum in vertex order, which is the
    /// head of `order` (kept sorted by (value, index)). Read it once
    /// [`Simplex::ask`] has returned `None`.
    pub(crate) fn result(&self) -> SimplexResult {
        debug_assert!(
            matches!(self.step, Step::Done),
            "the minimisation is still running"
        );
        let bi = self.order[0];
        SimplexResult {
            point: self.pts[bi],
            dim: self.dim,
            value: self.vals[bi],
            evals: self.evals,
        }
    }
}

/// Fills `order` with `0..order.len()` sorted by (value under
/// `total_cmp`, vertex index): the order a stable sort of the identity by
/// value gives, equal values in vertex order.
fn sort_from_identity(order: &mut [usize], vals: &[f64]) {
    for k in 0..order.len() {
        order[k] = k;
        reinsert_last(&mut order[..=k], vals);
    }
}

/// Moves the last entry of `order` — the vertex just replaced — down past
/// every entry after it by (value, index). The rest of `order` is sorted
/// by that key and the key is a total order, so the result is the one
/// sort of the whole.
#[inline]
fn reinsert_last(order: &mut [usize], vals: &[f64]) {
    let mut j = order.len() - 1;
    let v = order[j];
    while j > 0
        && vals[order[j - 1]]
            .total_cmp(&vals[v])
            .then(order[j - 1].cmp(&v))
            .is_gt()
    {
        order[j] = order[j - 1];
        j -= 1;
    }
    order[j] = v;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let r = minimize(
            |p| p.iter().map(|x| (x - 3.0) * (x - 3.0)).sum(),
            &[0.0, 0.0, 0.0],
            SimplexOptions::default(),
        );
        for &x in r.point() {
            assert!((x - 3.0).abs() < 0.05, "point {:?}", r.point());
        }
        assert!(r.value < 1e-2);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        // Banana function: minimum at (1, 1). Nelder–Mead needs a budget.
        let rosen = |p: &[f64]| {
            let (x, y) = (p[0], p[1]);
            (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
        };
        let r = minimize(
            rosen,
            &[-1.2, 1.0],
            SimplexOptions {
                initial_step: 0.5,
                tolerance: 1e-10,
                max_evals: 5000,
            },
        );
        assert!((r.point()[0] - 1.0).abs() < 0.05, "{:?}", r.point());
        assert!((r.point()[1] - 1.0).abs() < 0.05, "{:?}", r.point());
    }

    #[test]
    fn minimizes_absolute_value_objective() {
        // The paper's E(x) is a sum of absolute differences — non-smooth.
        let target = [5.0, -2.0];
        let f = |p: &[f64]| (p[0] - target[0]).abs() + (p[1] - target[1]).abs();
        let r = minimize(f, &[0.0, 0.0], SimplexOptions::default());
        assert!((r.point()[0] - 5.0).abs() < 0.1);
        assert!((r.point()[1] + 2.0).abs() < 0.1);
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0;
        let _ = minimize(
            |p| {
                count += 1;
                p[0] * p[0]
            },
            &[100.0],
            SimplexOptions {
                max_evals: 50,
                tolerance: 0.0,
                ..Default::default()
            },
        );
        // A shrink step may briefly overshoot the cap; allow the n+1 slack.
        assert!(count <= 55, "used {count} evals");
    }

    #[test]
    fn one_dimension_works() {
        let r = minimize(|p| (p[0] + 7.0).powi(2), &[0.0], SimplexOptions::default());
        assert!((r.point()[0] + 7.0).abs() < 0.05);
    }

    #[test]
    fn already_optimal_start_stays() {
        let r = minimize(
            |p| p[0] * p[0] + p[1] * p[1],
            &[0.0, 0.0],
            SimplexOptions {
                initial_step: 1.0,
                ..Default::default()
            },
        );
        assert!(r.value < 1e-2);
    }

    /// The heap-allocating minimiser this module shipped until the
    /// fixed-array rewrite, kept verbatim as the reference the proptest
    /// below holds [`minimize`] to, bit for bit.
    fn reference_minimize(
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        opts: SimplexOptions,
    ) -> (Vec<f64>, f64, usize) {
        let n = x0.len();
        assert!(n >= 1, "cannot minimize over zero dimensions");
        let mut evals = 0usize;
        let mut eval = |p: &[f64], evals: &mut usize| {
            *evals += 1;
            f(p)
        };

        // Initial simplex: x0 plus one vertex per axis offset.
        let mut pts: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        pts.push(x0.to_vec());
        for i in 0..n {
            let mut p = x0.to_vec();
            p[i] += opts.initial_step;
            pts.push(p);
        }
        let mut vals: Vec<f64> = pts.iter().map(|p| eval(p, &mut evals)).collect();

        while evals < opts.max_evals {
            // Order vertices best → worst.
            let mut order: Vec<usize> = (0..=n).collect();
            order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            if (vals[worst] - vals[best]).abs() < opts.tolerance {
                break;
            }

            // Centroid of all but the worst.
            let mut centroid = vec![0.0; n];
            for &i in &order[..n] {
                for d in 0..n {
                    centroid[d] += pts[i][d];
                }
            }
            for c in centroid.iter_mut() {
                *c /= n as f64;
            }

            let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
                a.iter().zip(b).map(|(&x, &y)| x + t * (y - x)).collect()
            };

            // Reflection: centroid + 1·(centroid − worst).
            let reflected = lerp(&centroid, &pts[worst], -1.0);
            let fr = eval(&reflected, &mut evals);

            if fr < vals[best] {
                // Expansion: centroid + 2·(centroid − worst).
                let expanded = lerp(&centroid, &pts[worst], -2.0);
                let fe = eval(&expanded, &mut evals);
                if fe < fr {
                    pts[worst] = expanded;
                    vals[worst] = fe;
                } else {
                    pts[worst] = reflected;
                    vals[worst] = fr;
                }
            } else if fr < vals[second_worst] {
                pts[worst] = reflected;
                vals[worst] = fr;
            } else {
                // Contraction (outside if the reflection helped at all, inside
                // otherwise).
                let t = if fr < vals[worst] { -0.5 } else { 0.5 };
                let contracted = lerp(&centroid, &pts[worst], t);
                let fc = eval(&contracted, &mut evals);
                if fc < vals[worst].min(fr) {
                    pts[worst] = contracted;
                    vals[worst] = fc;
                } else {
                    // Shrink everything toward the best vertex.
                    let best_pt = pts[best].clone();
                    for &i in order.iter().skip(1) {
                        pts[i] = lerp(&best_pt, &pts[i], 0.5);
                        vals[i] = eval(&pts[i], &mut evals);
                    }
                }
            }
        }

        let (bi, _) = vals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        (pts[bi].clone(), vals[bi], evals)
    }

    /// The three objective families the fit meets: the paper's Σ|·| over
    /// `k` targets, a smooth bowl, and a non-smooth max-norm with plateaus
    /// (ties in the vertex order). All seeded, so both minimisers see the
    /// same function.
    fn objective(kind: u8, dim: usize, seed: u64) -> impl Fn(&[f64]) -> f64 {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 1 + (seed % 12) as usize;
        let targets: Vec<f64> = (0..k * dim)
            .map(|_| rng.random_range(-200.0..200.0))
            .collect();
        let measured: Vec<f64> = (0..k).map(|_| rng.random_range(0.0..300.0)).collect();
        move |p: &[f64]| match kind % 3 {
            0 => crate::space::abs_error(p, &targets, &measured),
            1 => p
                .iter()
                .zip(&targets)
                .map(|(x, t)| (x - t) * (x - t) * (1.0 + measured[0]))
                .sum(),
            _ => p
                .iter()
                .zip(&targets)
                .map(|(x, t)| (x - t).abs().floor())
                .fold(0.0, f64::max),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn prop_fixed_array_minimizer_is_the_reference_bit_for_bit(
            dim in 1usize..9,
            kind in 0u8..3,
            seed in 0u64..1_000_000,
            start in -300.0f64..300.0,
            step in 0.01f64..120.0,
            tol_exp in -12i32..2,
            max_evals in 0usize..900,
        ) {
            let f = objective(kind, dim, seed);
            let x0: Vec<f64> = (0..dim).map(|d| start + 7.5 * d as f64).collect();
            let opts = SimplexOptions {
                initial_step: step,
                // Zero tolerance included: the loop then ends on the budget.
                tolerance: if tol_exp == -12 { 0.0 } else { 10f64.powi(tol_exp) },
                max_evals,
            };
            let got = minimize(&f, &x0, opts);
            let (point, value, evals) = reference_minimize(&f, &x0, opts);
            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(got.point()), bits(&point));
            proptest::prop_assert_eq!(got.value.to_bits(), value.to_bits());
            proptest::prop_assert_eq!(got.evals, evals);
        }
    }

    /// Lanes [`prop_lockstep_lanes_are_the_reference_bit_for_bit`] drives.
    const LANES: usize = 8;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // Up to 24 minimisations of the paper's objective over shared
        // targets, each with its own measurements, start, step, tolerance
        // (zero included) and budget (zero included), so lanes end at
        // different steps and are refilled mid-run.
        #[test]
        fn prop_lockstep_lanes_are_the_reference_bit_for_bit(
            dim in 1usize..9,
            k in 1usize..41,
            jobs in 1usize..25,
            seed in 0u64..1_000_000,
        ) {
            use crate::space::{abs_error, abs_error_lanes};
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let cols: Vec<f64> = (0..k * dim).map(|_| rng.random_range(-200.0..200.0)).collect();
            let job: Vec<(Vec<f64>, Vec<f64>, SimplexOptions)> = (0..jobs)
                .map(|_| {
                    let x0 = (0..dim).map(|_| rng.random_range(-300.0..300.0)).collect();
                    let measured = (0..k).map(|_| rng.random_range(0.0..300.0)).collect();
                    let tol_exp = rng.random_range(-12i32..2);
                    let opts = SimplexOptions {
                        initial_step: rng.random_range(0.01..120.0),
                        tolerance: if tol_exp == -12 { 0.0 } else { 10f64.powi(tol_exp) },
                        max_evals: rng.random_range(0usize..900),
                    };
                    (x0, measured, opts)
                })
                .collect();

            let mut next = 0..jobs;
            let mut meas = vec![[0.0f64; LANES]; k];
            let mut lanes: [Option<(usize, Simplex)>; LANES] = std::array::from_fn(|_| None);
            let mut got = vec![None; jobs];
            loop {
                let mut points = [[0.0f64; LANES]; MAX_DIM];
                let mut running = false;
                for (l, lane) in lanes.iter_mut().enumerate() {
                    loop {
                        if let Some((j, fit)) = lane {
                            if let Some(p) = fit.ask() {
                                for (col, &x) in points.iter_mut().zip(p) {
                                    col[l] = x;
                                }
                                running = true;
                                break;
                            }
                            got[*j] = Some(fit.result());
                        }
                        *lane = next.next().map(|j| {
                            let (x0, measured, opts) = &job[j];
                            for (m, &x) in meas.iter_mut().zip(measured) {
                                m[l] = x;
                            }
                            (j, Simplex::new(x0, *opts))
                        });
                        if lane.is_none() {
                            break;
                        }
                    }
                }
                if !running {
                    break;
                }
                let values = abs_error_lanes(&points[..dim], &cols, &meas);
                for (lane, v) in lanes.iter_mut().zip(values) {
                    if let Some((_, fit)) = lane {
                        fit.tell(v);
                    }
                }
            }

            let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for ((x0, measured, opts), got) in job.iter().zip(got) {
                let got = got.expect("every minimisation ends");
                let (point, value, evals) =
                    reference_minimize(|p| abs_error(p, &cols, measured), x0, *opts);
                proptest::prop_assert_eq!(bits(got.point()), bits(&point));
                proptest::prop_assert_eq!(got.value.to_bits(), value.to_bits());
                proptest::prop_assert_eq!(got.evals, evals);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn more_than_max_dim_is_rejected() {
        minimize(|p| p[0], &[0.0; MAX_DIM + 1], SimplexOptions::default());
    }
}
