//! Loss functions returning `(scalar_loss, grad_wrt_input)`.

use secemb_tensor::{ops, Matrix};

/// Mean-squared error: `mean((pred - target)²)`.
///
/// # Panics
///
/// Panics on shape mismatch or empty input.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse_loss: shape mismatch");
    assert!(!pred.is_empty(), "mse_loss: empty input");
    let n = pred.len() as f64;
    let diff = pred.sub(target);
    let loss = diff
        .as_slice()
        .iter()
        .map(|&d| (d as f64) * (d as f64))
        .sum::<f64>()
        / n;
    let grad = diff.scale(2.0 / n as f32);
    (loss, grad)
}

/// Binary cross-entropy on logits (the DLRM click-probability head).
///
/// `logits` and `targets` are `batch × 1`; targets in `{0, 1}` (soft labels
/// are accepted). Numerically stable: uses
/// `max(z,0) - z·y + log(1 + exp(-|z|))`.
///
/// # Panics
///
/// Panics on shape mismatch or empty input.
pub fn bce_with_logits_loss(logits: &Matrix, targets: &Matrix) -> (f64, Matrix) {
    assert_eq!(logits.shape(), targets.shape(), "bce: shape mismatch");
    assert!(!logits.is_empty(), "bce: empty input");
    let n = logits.len() as f64;
    let mut loss = 0.0f64;
    for (&z, &y) in logits.as_slice().iter().zip(targets.as_slice().iter()) {
        let z = z as f64;
        let y = y as f64;
        loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
    }
    loss /= n;
    let grad = logits.zip_map(targets, |z, y| (ops::sigmoid_scalar(z) - y) / n as f32);
    (loss, grad)
}

/// Softmax cross-entropy on logits against integer class targets (the LLM
/// next-token loss). `logits` is `batch × classes`.
///
/// Returns the mean negative log-likelihood and the gradient
/// `(softmax - onehot) / batch`.
///
/// Not oblivious: it reads and writes each row at its target class. Its
/// callers, the LLM's fine-tuning and perplexity evaluation (Fig. 14),
/// are an accuracy experiment outside the protected path.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()`, on any out-of-range target,
/// or on empty input.
pub fn cross_entropy_loss(logits: &Matrix, targets: &[usize]) -> (f64, Matrix) {
    assert_eq!(targets.len(), logits.rows(), "cross_entropy: target count");
    assert!(!logits.is_empty(), "cross_entropy: empty input");
    let classes = logits.cols();
    let batch = logits.rows() as f64;
    let log_probs = ops::log_softmax_rows(logits);
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < classes, "cross_entropy: target {t} out of range");
        loss -= log_probs.get(r, t) as f64;
    }
    loss /= batch;
    let mut grad = ops::softmax_rows(logits);
    for (r, &t) in targets.iter().enumerate() {
        let v = grad.get(r, t);
        grad.set(r, t, v - 1.0);
    }
    let grad = grad.scale(1.0 / batch as f32);
    (loss, grad)
}

/// Perplexity corresponding to a mean cross-entropy (nats): `exp(loss)`.
pub fn perplexity(mean_cross_entropy: f64) -> f64 {
    mean_cross_entropy.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basics() {
        let p = Matrix::from_vec(1, 2, vec![1.0, 3.0]);
        let t = Matrix::from_vec(1, 2, vec![0.0, 3.0]);
        let (loss, grad) = mse_loss(&p, &t);
        assert!((loss - 0.5).abs() < 1e-9);
        assert_eq!(grad.as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn bce_matches_reference() {
        let z = Matrix::from_vec(2, 1, vec![0.0, 2.0]);
        let y = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        let (loss, grad) = bce_with_logits_loss(&z, &y);
        // -ln(sigmoid(0)) = ln 2; -ln(1 - sigmoid(2)) = ln(1+e^2)
        let expect = ((2.0f64).ln() + (1.0 + 2.0f64.exp()).ln()) / 2.0;
        assert!((loss - expect).abs() < 1e-6, "{loss} vs {expect}");
        assert!((grad.get(0, 0) - (0.5 - 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn bce_stable_extreme_logits() {
        let z = Matrix::from_vec(2, 1, vec![80.0, -80.0]);
        let y = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        let (loss, grad) = bce_with_logits_loss(&z, &y);
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let logits = Matrix::zeros(1, 4);
        let (loss, grad) = cross_entropy_loss(&logits, &[2]);
        assert!((loss - (4.0f64).ln()).abs() < 1e-6);
        // grad = (0.25 - onehot)/1
        assert!((grad.get(0, 2) + 0.75).abs() < 1e-6);
        assert!((grad.get(0, 0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_grad_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.2, -0.5, 1.0, 0.0, 0.3, -0.8]);
        let targets = [2usize, 0];
        let (_, grad) = cross_entropy_loss(&logits, &targets);
        let h = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += h;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= h;
            let fd = ((cross_entropy_loss(&lp, &targets).0 - cross_entropy_loss(&lm, &targets).0)
                / (2.0 * h as f64)) as f32;
            assert!(
                (grad.as_slice()[i] - fd).abs() < 1e-3,
                "i={i}: {} vs {fd}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn perplexity_of_zero_loss_is_one() {
        assert_eq!(perplexity(0.0), 1.0);
        assert!((perplexity((4.0f64).ln()) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_target() {
        cross_entropy_loss(&Matrix::zeros(1, 3), &[3]);
    }
}
