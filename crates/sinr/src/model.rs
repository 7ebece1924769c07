//! Interference-model abstraction.
//!
//! The paper compares two models over the *same* instance: deterministic
//! non-fading SINR and stochastic Rayleigh fading. Algorithms that merely
//! need to ask "which of these transmissions succeeded this slot?" — ALOHA
//! latency protocols, regret-learning loops, Monte Carlo slot execution —
//! are written against [`SuccessModel`] so they run unmodified under
//! either model. The non-fading implementation lives here; the Rayleigh
//! implementation lives in `rayfade-core`.

use crate::gain::GainMatrix;
use crate::nonfading;
use crate::params::SinrParams;

/// A physical model that can resolve one time slot: given which links
/// transmit, report which succeed (reach SINR `β` at their receiver).
///
/// Implementations may be stochastic (`&mut self`): the Rayleigh model
/// draws fresh fading coefficients per slot, independent across slots, as
/// the paper assumes (Sec. 2).
pub trait SuccessModel {
    /// Number of links in the underlying instance.
    fn len(&self) -> usize;

    /// Resolves one slot: `active[i]` says whether link `i` transmits;
    /// the returned vector holds the indices of successful links, sorted.
    fn resolve_slot(&mut self, active: &[bool]) -> Vec<usize>;

    /// Whether the instance has no links.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Achieved SINR of every link this slot, for data-rate utilities.
    ///
    /// Deterministic models compute this from the mask; stochastic models
    /// draw one realization. An idle link's entry is counterfactual: the
    /// SINR it would have achieved transmitting against this slot's
    /// active set. There is no default: every model implements it.
    fn resolve_sinrs(&mut self, active: &[bool]) -> Vec<f64>;
}

/// The deterministic non-fading SINR model (Sec. 2 of the paper).
#[derive(Debug, Clone)]
pub struct NonFadingModel {
    gain: GainMatrix,
    params: SinrParams,
}

impl NonFadingModel {
    /// Bundles a gain matrix with model parameters.
    pub fn new(gain: GainMatrix, params: SinrParams) -> Self {
        NonFadingModel { gain, params }
    }

    /// The underlying gain matrix.
    pub fn gain(&self) -> &GainMatrix {
        &self.gain
    }

    /// The model parameters.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }
}

impl SuccessModel for NonFadingModel {
    fn len(&self) -> usize {
        self.gain.len()
    }

    fn resolve_slot(&mut self, active: &[bool]) -> Vec<usize> {
        nonfading::successful_links(&self.gain, &self.params, active)
    }

    fn resolve_sinrs(&mut self, active: &[bool]) -> Vec<f64> {
        nonfading::sinr_all(&self.gain, &self.params, active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonfading_model_is_deterministic() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 1.0, 1.0, 10.0]);
        let mut model = NonFadingModel::new(gm, SinrParams::new(2.0, 5.0, 0.0));
        let active = vec![true, true];
        let a = model.resolve_slot(&active);
        let b = model.resolve_slot(&active);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 1]); // 10/1 = 10 >= 5 for both.
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn nonfading_model_sinrs() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 1.0, 1.0, 10.0]);
        let mut model = NonFadingModel::new(gm, SinrParams::new(2.0, 5.0, 0.0));
        let sinrs = model.resolve_sinrs(&[true, true]);
        assert!((sinrs[0] - 10.0).abs() < 1e-12);
        assert!((sinrs[1] - 10.0).abs() < 1e-12);
        // Lone transmitter with zero noise: infinite SINR.
        let sinrs = model.resolve_sinrs(&[true, false]);
        assert_eq!(sinrs[0], f64::INFINITY);
    }

    #[test]
    fn inactive_links_cannot_succeed() {
        let gm = GainMatrix::from_raw(2, vec![10.0, 0.0, 0.0, 10.0]);
        let mut model = NonFadingModel::new(gm, SinrParams::new(2.0, 1.0, 1.0));
        assert_eq!(model.resolve_slot(&[false, true]), vec![1]);
        assert_eq!(model.resolve_slot(&[false, false]), Vec::<usize>::new());
    }
}
