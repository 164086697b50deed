//! Figure 16 (Appendix A): the 32 code fragments where cost-based
//! rewriting applies, with their pattern ids and source locations.

use workloads::wilos;

fn main() {
    println!("\nFigure 16: code fragments for cost based rewriting");
    println!(
        "{:<6} {:<10} {:<44} {:>6}",
        "Sl.No.", "Pattern", "File Name", "Line"
    );
    println!("{:-<70}", "");
    for f in wilos::fragments() {
        println!(
            "{:<6} {:<10} {:<44} {:>6}",
            f.id,
            format!("{:?}", f.pattern),
            f.file,
            f.line
        );
    }
    println!("{:-<70}", "");
    println!("32 fragments across patterns A-F, mirroring the paper's appendix");
}
