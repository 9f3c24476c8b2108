//! No-op `Serialize`/`Deserialize` derives: the workspace only decorates
//! types with them, it never drives a serde serializer offline.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize)]
pub fn serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize)]
pub fn deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
