//! Prints the paper's Figure 4, the map of possibility/impossibility
//! results, from [`ppfts_verify::figure4::map`].
//!
//! Run with: `cargo run --release -p ppfts-verify --bin figure4`

use ppfts_verify::figure4::{map, Cell};

fn paint(cell: Cell) -> String {
    format!("  {cell} ")
}

fn main() {
    println!("Figure 4 — map of results (✔ possible, ✘ impossible, ? open/other column)\n");
    println!(
        "{:<6}{:>14}{:>22}{:>12}{:>16}",
        "model", "no assumption", "omission knowledge", "unique IDs", "knowledge of n"
    );
    println!("{}", "-".repeat(70));
    for (model, row) in map() {
        println!(
            "{:<6}{:>14}{:>22}{:>12}{:>16}",
            model.to_string(),
            paint(row[0]),
            paint(row[1]),
            paint(row[2]),
            paint(row[3])
        );
    }
    println!("\nAll 40 cells come from ppfts_verify::figure4. 13 execute a witness: each");
    println!("of their ✔ ran its simulator and passed the per-step Pairing audit, each ✘");
    println!("ran its attack construction and produced the predicted violation/stall.");
    println!("The other 27 are the paper's verdicts, documented as constants there.");
    println!("The T2/omission-knowledge cell is the paper's explicitly open problem.");
}
