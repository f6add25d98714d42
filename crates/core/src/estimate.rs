//! Point estimates with propagated variances (paper §5.1).
//!
//! Probabilistic query compilation expresses every answer as a product of
//! probabilities and conditional expectations. Each factor carries a
//! variance — binomial for probabilities, Koenig–Huygens standard error for
//! conditional expectations — and products combine with
//! `V(XY) = V(X)V(Y) + V(X)E(Y)² + V(Y)E(X)²` under the paper's independence
//! assumption. Assuming normality of the final estimator yields confidence
//! intervals.

/// A point estimate with an estimator variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    pub value: f64,
    pub variance: f64,
}

impl Estimate {
    /// An exactly-known constant.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            variance: 0.0,
        }
    }

    /// A probability factor `p` estimated from `n` training rows: binomial
    /// estimator variance `p(1-p)/n`.
    pub fn probability(p: f64, n: u64) -> Self {
        let p = p.clamp(0.0, 1.0);
        let var = if n == 0 {
            0.0
        } else {
            p * (1.0 - p) / n as f64
        };
        Self {
            value: p,
            variance: var,
        }
    }

    /// A conditional expectation `E(X|C)` with second moment `E(X²|C)`,
    /// estimated from `n_effective ≈ n·P(C)` rows: Koenig–Huygens variance
    /// over the effective sample.
    pub fn conditional_expectation(e: f64, e_sq: f64, n_effective: f64) -> Self {
        let var_x = (e_sq - e * e).max(0.0);
        let var = if n_effective >= 1.0 {
            var_x / n_effective
        } else {
            var_x
        };
        Self {
            value: e,
            variance: var,
        }
    }

    /// Product of independent estimates:
    /// `V(XY) = V(X)V(Y) + V(X)E(Y)² + V(Y)E(X)²`.
    pub fn product(self, other: Estimate) -> Estimate {
        Estimate {
            value: self.value * other.value,
            variance: self.variance * other.variance
                + self.variance * other.value * other.value
                + other.variance * self.value * self.value,
        }
    }

    /// Scale by an exact constant: variance scales by `c²`.
    pub fn scale(self, c: f64) -> Estimate {
        Estimate {
            value: self.value * c,
            variance: self.variance * c * c,
        }
    }

    /// Sum of independent estimates (used for difference-of-aggregates and
    /// group recombination).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Estimate) -> Estimate {
        Estimate {
            value: self.value + other.value,
            variance: self.variance + other.variance,
        }
    }

    /// Ratio `self / other`, propagating first-order (delta-method) variance.
    pub fn divide(self, other: Estimate) -> Estimate {
        if other.value.abs() < f64::EPSILON {
            return Estimate {
                value: 0.0,
                variance: self.variance,
            };
        }
        let value = self.value / other.value;
        let rel = self.variance / (self.value * self.value).max(f64::EPSILON)
            + other.variance / (other.value * other.value).max(f64::EPSILON);
        Estimate {
            value,
            variance: (value * value * rel).max(0.0),
        }
    }

    /// Guarded [`Estimate::divide`] for ratios whose denominator must carry
    /// actual support — the Theorem-2 conditional ratios of multi-RSPN
    /// combination. Returns `None` when the denominator is degenerate (zero
    /// within `f64::EPSILON`, NaN, or infinite — e.g. the overlap fraction
    /// of an extension step resolved to an empty estimate), so callers can
    /// surface a clean `NotAnswerable` instead of propagating NaN/∞ through
    /// the product chain. For well-supported denominators the result is
    /// bitwise identical to [`Estimate::divide`].
    pub fn try_divide(self, other: Estimate) -> Option<Estimate> {
        if !other.value.is_finite() || other.value.abs() < f64::EPSILON {
            return None;
        }
        Some(self.divide(other))
    }

    /// Standard deviation of the estimator.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// Two-sided normal confidence interval at the given confidence level
    /// (e.g. 0.95). A level that is not finite reads as 0, the interval
    /// `(value, value)`.
    pub fn confidence_interval(&self, confidence: f64) -> (f64, f64) {
        let level = if confidence.is_finite() {
            confidence.clamp(0.0, 0.9999)
        } else {
            0.0
        };
        let z = normal_quantile(0.5 + level / 2.0);
        let half = z * self.std_dev();
        (self.value - half, self.value + half)
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, |ε| < 1e-9).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&p) && p > 0.0,
        "quantile requires p in (0,1)"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_variance_is_binomial() {
        let e = Estimate::probability(0.25, 100);
        assert!((e.variance - 0.25 * 0.75 / 100.0).abs() < 1e-15);
        assert_eq!(Estimate::probability(0.5, 0).variance, 0.0);
    }

    #[test]
    fn product_of_exact_is_exact() {
        let a = Estimate::exact(3.0).product(Estimate::exact(4.0));
        assert_eq!(a.value, 12.0);
        assert_eq!(a.variance, 0.0);
    }

    #[test]
    fn product_variance_formula() {
        let x = Estimate {
            value: 2.0,
            variance: 0.1,
        };
        let y = Estimate {
            value: 5.0,
            variance: 0.2,
        };
        let p = x.product(y);
        assert!((p.value - 10.0).abs() < 1e-12);
        let want = 0.1 * 0.2 + 0.1 * 25.0 + 0.2 * 4.0;
        assert!((p.variance - want).abs() < 1e-12);
    }

    #[test]
    fn ci_contains_point_and_widens_with_variance() {
        let narrow = Estimate {
            value: 100.0,
            variance: 1.0,
        };
        let wide = Estimate {
            value: 100.0,
            variance: 25.0,
        };
        let (nl, nh) = narrow.confidence_interval(0.95);
        let (wl, wh) = wide.confidence_interval(0.95);
        assert!(nl < 100.0 && 100.0 < nh);
        assert!(wh - wl > nh - nl);
        // 95% CI half-width for σ=1 is ≈1.96.
        assert!((nh - 100.0 - 1.96).abs() < 0.01);
    }

    #[test]
    fn non_finite_confidence_levels_give_the_point() {
        let e = Estimate {
            value: 7.5,
            variance: 4.0,
        };
        for level in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (lo, hi) = e.confidence_interval(level);
            assert_eq!((lo, hi), (7.5, 7.5), "level {level}");
        }
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-5);
    }

    #[test]
    fn divide_delta_method() {
        let num = Estimate {
            value: 10.0,
            variance: 1.0,
        };
        let den = Estimate {
            value: 2.0,
            variance: 0.0,
        };
        let r = num.divide(den);
        assert!((r.value - 5.0).abs() < 1e-12);
        // V(X/c) = V(X)/c².
        assert!((r.variance - 0.25).abs() < 1e-12);
        let zero = num.divide(Estimate::exact(0.0));
        assert_eq!(zero.value, 0.0);
    }

    #[test]
    fn try_divide_rejects_degenerate_denominators() {
        let num = Estimate {
            value: 10.0,
            variance: 1.0,
        };
        // Zero, NaN, and infinite denominators are all rejected instead of
        // producing 0/NaN/∞ ratios.
        assert!(num.try_divide(Estimate::exact(0.0)).is_none());
        assert!(num.try_divide(Estimate::exact(f64::NAN)).is_none());
        assert!(num.try_divide(Estimate::exact(f64::INFINITY)).is_none());
        assert!(num
            .try_divide(Estimate::exact(f64::EPSILON / 2.0))
            .is_none());
        // A supported denominator matches divide() bitwise.
        let den = Estimate {
            value: 2.0,
            variance: 0.25,
        };
        let a = num.try_divide(den).unwrap();
        let b = num.divide(den);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.variance.to_bits(), b.variance.to_bits());
    }

    #[test]
    fn koenig_huygens_conditional_variance() {
        // X|C uniform on {0,1}: E=0.5, E(X²)=0.5, Var=0.25; n_eff=25 → 0.01.
        let e = Estimate::conditional_expectation(0.5, 0.5, 25.0);
        assert!((e.variance - 0.01).abs() < 1e-12);
    }
}
