//! The conditional Variational Autoencoder of the paper's Table II.
//!
//! Encoder: `(num_features + 1) → 20 → 16 → 14 → 12 → latent`, ReLU
//! activations with 30 % dropout on every hidden layer. Decoder:
//! `(latent + 1) → 12 → 14 → 16 → 18 → num_features`, sigmoid output so
//! reconstructions live in the `[0, 1]` encoded space. The `+1` is the
//! conditioning column: the *desired* class is appended to both the input
//! and the latent code, which is what makes the decoder a counterfactual
//! generator rather than a plain reconstructor.
//!
//! Table II lists a single "latent space vec." output; as in the CVAE the
//! paper builds on (Mahajan et al. [5] / Kingma & Welling [16]) we realize
//! it as two heads — `mu` and `logvar` — from the last 12-unit layer, with
//! the reparameterization `z = mu + ε·exp(logvar/2)`.

use cfx_tensor::checkpoint::Checkpoint;
use cfx_tensor::init::randn_tensor;
use cfx_tensor::{
    Activation, CfxError, Linear, Mlp, Module, Tape, Tensor, Var,
};
use rand::Rng;

/// Encoder/decoder hidden widths from Table II.
pub const ENCODER_HIDDEN: [usize; 4] = [20, 16, 14, 12];
/// Decoder hidden widths from Table II.
pub const DECODER_HIDDEN: [usize; 4] = [12, 14, 16, 18];
/// Latent dimensionality ("The size Latent space vector is adjusted to 10
/// features", §IV-B).
pub const PAPER_LATENT_DIM: usize = 10;
/// Dropout rate on every layer ("We added a dropout of 30 %", §IV-B).
pub const PAPER_DROPOUT: f32 = 0.30;

/// Tape handles produced by one conditional forward pass.
#[derive(Debug, Clone, Copy)]
pub struct CvaeForward {
    /// Posterior mean, `(n, latent)`.
    pub mu: Var,
    /// Posterior log-variance, `(n, latent)`.
    pub logvar: Var,
    /// Reparameterized latent sample, `(n, latent)`.
    pub z: Var,
    /// Decoder output in `[0, 1]`, `(n, num_features)`.
    pub recon: Var,
}

/// The conditional VAE.
#[derive(Debug, Clone)]
pub struct Cvae {
    /// Shared encoder trunk `(in + 1) → … → 12`.
    pub encoder: Mlp,
    /// Posterior-mean head `12 → latent`.
    pub mu_head: Linear,
    /// Posterior log-variance head `12 → latent`.
    pub logvar_head: Linear,
    /// Decoder `(latent + 1) → … → in`, sigmoid output.
    pub decoder: Mlp,
    latent_dim: usize,
    input_dim: usize,
}

impl Cvae {
    /// Builds the paper's architecture for `input_dim` encoded features.
    pub fn paper<R: Rng + ?Sized>(input_dim: usize, rng: &mut R) -> Self {
        Self::new(input_dim, PAPER_LATENT_DIM, PAPER_DROPOUT, rng)
    }

    /// Builds the architecture with a custom latent size / dropout (used by
    /// the latent-size ablation).
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        latent_dim: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        Self::new_with_output(input_dim, latent_dim, dropout, Activation::Sigmoid, rng)
    }

    /// Variant with a custom decoder output activation. `Identity` yields
    /// raw logits, which a BCE-with-logits reconstruction loss needs (the
    /// plain data-VAE of the REVISE/C-CHVAE baselines uses this).
    pub fn new_with_output<R: Rng + ?Sized>(
        input_dim: usize,
        latent_dim: usize,
        dropout: f32,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(input_dim > 0 && latent_dim > 0, "dims must be positive");
        let keep = 1.0 - dropout;
        let enc_dims: Vec<usize> = std::iter::once(input_dim + 1)
            .chain(ENCODER_HIDDEN)
            .collect();
        let encoder = Mlp::new(
            &enc_dims,
            Activation::Relu,
            Activation::Relu,
            keep,
            rng,
        );
        let mu_head =
            Linear::new(ENCODER_HIDDEN[3], latent_dim, Activation::Identity, rng);
        let logvar_head =
            Linear::new(ENCODER_HIDDEN[3], latent_dim, Activation::Identity, rng);
        let dec_dims: Vec<usize> = std::iter::once(latent_dim + 1)
            .chain(DECODER_HIDDEN)
            .chain(std::iter::once(input_dim))
            .collect();
        let decoder = Mlp::new(
            &dec_dims,
            Activation::Relu,
            output_activation,
            keep,
            rng,
        );
        Cvae { encoder, mu_head, logvar_head, decoder, latent_dim, input_dim }
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Encoded feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// One conditional forward pass on the tape.
    ///
    /// `x` is `(n, input_dim)`; `cond` is the `(n, 1)` desired-class column
    /// appended to both encoder input and latent code; `eps` is the
    /// `(n, latent)` reparameterization noise (pass zeros for a
    /// deterministic mean decode).
    pub fn forward<R: Rng + ?Sized>(
        &self,
        tape: &mut Tape,
        x: Var,
        cond: &Tensor,
        eps: &Tensor,
        param_vars: &mut Vec<Var>,
        train: bool,
        rng: &mut R,
    ) -> CvaeForward {
        let (n, d) = tape.value(x).shape();
        assert_eq!(d, self.input_dim, "input width");
        assert_eq!(cond.shape(), (n, 1), "condition shape");
        assert_eq!(eps.shape(), (n, self.latent_dim), "eps shape");

        let cond_var = tape.leaf_copy(cond);
        let enc_in = tape.concat_cols(x, cond_var);
        let trunk = self.encoder.forward(tape, enc_in, param_vars, train, rng);
        let mu = self.mu_head.forward(tape, trunk, param_vars);
        let logvar_raw = self.logvar_head.forward(tape, trunk, param_vars);
        // Soft-clamp log-variance to [-6, 6] with tanh to keep exp() sane
        // through the early hinge-dominated epochs.
        let logvar = {
            let t = tape.scale(logvar_raw, 1.0 / 6.0);
            let t = tape.tanh(t);
            tape.scale(t, 6.0)
        };
        let z = tape.reparameterize(mu, logvar, eps);
        let cond_var2 = tape.leaf_copy(cond);
        let dec_in = tape.concat_cols(z, cond_var2);
        let recon = self.decoder.forward(tape, dec_in, param_vars, train, rng);
        CvaeForward { mu, logvar, z, recon }
    }

    /// Inference-mode encode: returns `(mu, logvar)` tensors.
    pub fn encode(&self, x: &Tensor, cond: &Tensor) -> (Tensor, Tensor) {
        let input = x.concat_cols(cond);
        let trunk = self.encoder.predict(&input);
        let mu = linear_predict(&self.mu_head, &trunk);
        let mut logvar = linear_predict(&self.logvar_head, &trunk);
        trunk.recycle();
        logvar.map_inplace(|v| 6.0 * (v / 6.0).tanh());
        (mu, logvar)
    }

    /// Inference-mode decode of latent codes.
    pub fn decode(&self, z: &Tensor, cond: &Tensor) -> Tensor {
        self.decoder.predict(&z.concat_cols(cond))
    }

    /// Encode-perturb-decode generation used at counterfactual time:
    /// encodes `x` under the desired class, samples
    /// `z = mu + noise_scale·ε·exp(logvar/2)` and decodes. Row `r` of
    /// `eps` (standard-normal draws, one row per row of `x`) perturbs row
    /// `r` of `x`, so a caller that derives each row's noise on its own
    /// makes every row's output independent of its batch-mates. `None`,
    /// or `noise_scale = 0`, decodes deterministically at the posterior
    /// mean.
    pub fn generate(
        &self,
        x: &Tensor,
        cond: &Tensor,
        noise_scale: f32,
        eps: Option<&Tensor>,
    ) -> Tensor {
        let (mu, logvar) = self.encode(x, cond);
        let z = match eps {
            Some(eps) if noise_scale > 0.0 => {
                let mut z = mu.clone();
                for ((z, &lv), &e) in z
                    .as_mut_slice()
                    .iter_mut()
                    .zip(logvar.as_slice())
                    .zip(eps.as_slice())
                {
                    *z += noise_scale * e * (0.5 * lv).exp();
                }
                z
            }
            _ => mu,
        };
        self.decode(&z, cond)
    }

    /// Samples `n` latent codes from the prior `N(0, I)`.
    pub fn sample_prior<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Tensor {
        randn_tensor(n, self.latent_dim, rng)
    }

    /// Writes the generator — architecture dims (input width, latent
    /// size) plus every parameter — into checkpoint sections under
    /// `prefix`. Dims travel with the weights so a restore can reject a
    /// checkpoint from a differently-shaped model.
    pub fn export_to(&self, ckpt: &mut Checkpoint, prefix: &str) {
        ckpt.put_u64s(
            &format!("{prefix}.dims"),
            &[self.input_dim as u64, self.latent_dim as u64],
        );
        ckpt.put_tensors(&format!("{prefix}.params"), &self.export_params());
    }

    /// Restores the generator from [`export_to`](Self::export_to)
    /// sections. The recorded dims must match this instance's
    /// architecture; a mismatch is a [`CfxError::Corrupt`], never a panic
    /// or a silently misloaded model.
    pub fn import_from(
        &mut self,
        ckpt: &Checkpoint,
        prefix: &str,
    ) -> Result<(), CfxError> {
        let dims = ckpt.u64s(&format!("{prefix}.dims"))?;
        let want = [self.input_dim as u64, self.latent_dim as u64];
        if dims != want {
            return Err(CfxError::corrupt(format!(
                "cvae dims mismatch: checkpoint {dims:?}, model {want:?}"
            )));
        }
        self.try_import_params(&ckpt.tensors(&format!("{prefix}.params"))?)
    }
}

/// Plain (no-tape) forward of a single linear layer.
fn linear_predict(layer: &Linear, x: &Tensor) -> Tensor {
    let mut z = x.matmul(&layer.w);
    for r in 0..z.rows() {
        for (v, &b) in z.row_slice_mut(r).iter_mut().zip(layer.b.as_slice()) {
            *v += b;
        }
    }
    z
}

impl Module for Cvae {
    fn visit_params(&self, f: &mut dyn FnMut(&Tensor)) {
        self.encoder.visit_params(f);
        self.mu_head.visit_params(f);
        self.logvar_head.visit_params(f);
        self.decoder.visit_params(f);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.encoder.visit_params_mut(f);
        self.mu_head.visit_params_mut(f);
        self.logvar_head.visit_params_mut(f);
        self.decoder.visit_params_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfx_tensor::init::uniform_tensor;
    use cfx_tensor::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_architecture_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let vae = Cvae::paper(9, &mut rng);
        assert_eq!(vae.latent_dim(), 10);
        assert_eq!(vae.encoder.in_dim(), 10); // 9 features + condition
        assert_eq!(vae.encoder.out_dim(), 12);
        assert_eq!(vae.decoder.in_dim(), 11); // latent 10 + condition
        assert_eq!(vae.decoder.out_dim(), 9);
        // Layer counts from Table II: 4 trunk + heads; 5 decoder layers.
        assert_eq!(vae.encoder.layers.len(), 4);
        assert_eq!(vae.decoder.layers.len(), 5);
    }

    #[test]
    fn forward_shapes_and_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let vae = Cvae::paper(6, &mut rng);
        let x = uniform_tensor(4, 6, 0.0, 1.0, &mut rng);
        let cond = Tensor::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
        let eps = Tensor::zeros(4, 10);
        let mut tape = Tape::new();
        let xv = tape.leaf(x);
        let mut pv = Vec::new();
        let out =
            vae.forward(&mut tape, xv, &cond, &eps, &mut pv, false, &mut rng);
        assert_eq!(tape.value(out.mu).shape(), (4, 10));
        assert_eq!(tape.value(out.logvar).shape(), (4, 10));
        assert_eq!(tape.value(out.recon).shape(), (4, 6));
        assert!(tape
            .value(out.recon)
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
        // logvar soft-clamped to [-6, 6].
        assert!(tape
            .value(out.logvar)
            .as_slice()
            .iter()
            .all(|&v| (-6.0..=6.0).contains(&v)));
    }

    #[test]
    fn tape_forward_matches_inference_path() {
        let mut rng = StdRng::seed_from_u64(2);
        let vae = Cvae::paper(5, &mut rng);
        let x = uniform_tensor(3, 5, 0.0, 1.0, &mut rng);
        let cond = Tensor::from_vec(3, 1, vec![1.0, 1.0, 0.0]);
        let eps = Tensor::zeros(3, 10);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let mut pv = Vec::new();
        let out =
            vae.forward(&mut tape, xv, &cond, &eps, &mut pv, false, &mut rng);
        let (mu, _) = vae.encode(&x, &cond);
        for (a, b) in tape.value(out.mu).as_slice().iter().zip(mu.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
        // eps = 0 ⇒ z = mu ⇒ recon = decode(mu).
        let recon = vae.decode(&mu, &cond);
        for (a, b) in
            tape.value(out.recon).as_slice().iter().zip(recon.as_slice())
        {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn condition_changes_the_decode() {
        let mut rng = StdRng::seed_from_u64(3);
        let vae = Cvae::paper(5, &mut rng);
        let x = uniform_tensor(1, 5, 0.0, 1.0, &mut rng);
        let pos = vae.generate(&x, &Tensor::scalar(1.0), 0.0, None);
        let neg = vae.generate(&x, &Tensor::scalar(0.0), 0.0, None);
        let diff: f32 = pos
            .as_slice()
            .iter()
            .zip(neg.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "condition had no effect");
    }

    #[test]
    fn elbo_training_reduces_reconstruction_error() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut vae = Cvae::new(4, 3, 0.0, &mut rng);
        // Structured data: two clusters keyed by the condition.
        let n = 64;
        let mut xs = Vec::new();
        let mut conds = Vec::new();
        for i in 0..n {
            let c = (i % 2) as f32;
            for j in 0..4 {
                let base = if c > 0.5 { 0.8 } else { 0.2 };
                xs.push(base + 0.05 * ((i * 7 + j * 3) % 10) as f32 / 10.0);
            }
            conds.push(c);
        }
        let x = Tensor::from_vec(n, 4, xs);
        let cond = Tensor::from_vec(n, 1, conds);
        let mut opt = Adam::with_lr(5e-3);
        let mut first = None;
        let mut last = 0.0;
        let mut tape = Tape::new();
        let mut pv = Vec::new();
        for _ in 0..300 {
            let eps = randn_tensor(n, 3, &mut rng);
            tape.reset();
            pv.clear();
            let xv = tape.leaf_copy(&x);
            let out =
                vae.forward(&mut tape, xv, &cond, &eps, &mut pv, true, &mut rng);
            let rec = tape.mse_loss(out.recon, xv);
            let kl = tape.kl_gauss(out.mu, out.logvar);
            let kl_term = tape.scale(kl, 0.01);
            let loss = tape.add(rec, kl_term);
            last = tape.value(rec).item();
            first.get_or_insert(last);
            tape.backward(loss);
            let grads = tape.grads_of(&pv);
            opt.step_refs(&mut vae, &grads);
        }
        let first = first.unwrap();
        assert!(
            last < 0.5 * first,
            "reconstruction did not improve: {first} -> {last}"
        );
    }

    #[test]
    fn prior_samples_have_right_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let vae = Cvae::paper(7, &mut rng);
        let z = vae.sample_prior(12, &mut rng);
        assert_eq!(z.shape(), (12, 10));
    }
}
