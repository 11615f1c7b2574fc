//! Quickstart: deploy a shielded slice and register one UE through the
//! enclave-isolated AKA path.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", shield5g::quickstart()?);
    Ok(())
}
