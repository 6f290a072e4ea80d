//! Lookahead batch formation (paper §4.3, Figs. 10–11).
//!
//! The implementation lives in [`cluster::former`], next to the token-count
//! baseline the default [`cluster::Policy::form_microbatches`] uses; the
//! KunServe policy selects it through [`cluster::MicrobatchFormerSpec`].
//! This module re-exports the public surface under its historical path.

pub use cluster::former::balance_microbatches;
