//! Global average pooling in NCHW layout.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

impl Tensor {
    /// Global average pooling: `[b, c, h, w] -> [b, c]`.
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4.
    pub fn global_avg_pool(&self) -> Result<Tensor> {
        let shape = self.shape();
        if shape.len() != 4 {
            return Err(TensorError::InvalidShape {
                shape,
                reason: "global_avg_pool expects NCHW".into(),
            });
        }
        let (b, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        let norm = 1.0 / plane as f32;
        let xval = self.value();
        let mut out = Array::zeros(&[b, c]);
        for bc in 0..b * c {
            out.data_mut()[bc] = xval.data()[bc * plane..(bc + 1) * plane]
                .iter()
                .sum::<f32>()
                * norm;
        }
        drop(xval);
        let a = self.clone();
        Ok(Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                if !a.requires_grad() {
                    return;
                }
                // Every element assigned below — uninit (pool-recycled).
                let mut dx = Array::uninit(&[b, c, h, w]);
                for bc in 0..b * c {
                    let gv = g.data()[bc] * norm;
                    for v in &mut dx.data_mut()[bc * plane..(bc + 1) * plane] {
                        *v = gv;
                    }
                }
                a.accumulate_grad_owned(dx);
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_avg_pool_means_planes() {
        let x = Tensor::param(
            Array::from_vec(
                vec![1.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0, 40.0],
                &[1, 2, 2, 2],
            )
            .unwrap(),
        );
        let y = x.global_avg_pool().unwrap();
        assert_eq!(y.shape(), vec![1, 2]);
        assert_eq!(y.value().data(), &[4.0, 25.0]);
    }

    #[test]
    fn global_avg_pool_grad() {
        let x = Tensor::param(Array::zeros(&[2, 3, 4, 4]));
        let y = x.global_avg_pool().unwrap();
        y.sum().backward();
        let g = x.grad().unwrap();
        assert!(g.data().iter().all(|&v| (v - 1.0 / 16.0).abs() < 1e-7));
    }

    #[test]
    fn pool_validates() {
        let x3 = Tensor::param(Array::zeros(&[2, 2, 2]));
        assert!(x3.global_avg_pool().is_err());
    }
}
