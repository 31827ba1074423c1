//! Offline shim: no-op `Serialize` / `Deserialize` derives.
//!
//! The workspace derives serde traits on model types for downstream
//! interoperability, but nothing in-tree serializes through serde (the
//! binary formats are hand-written on `chare_rt::codec`). These derives
//! therefore expand to nothing, which keeps the annotations compiling
//! without crates.io access.

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
