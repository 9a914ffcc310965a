//! Runs the complete figure-reproduction suite at quick scale under
//! `cargo bench` (custom harness — this is a table-producing experiment run,
//! not a statistical microbenchmark; use the `figures` binary with no
//! `--quick` for paper-scale runs).

use bbs_bench::experiments::FIGURES;
use bbs_bench::Profile;

fn main() {
    // `cargo bench` passes its own arguments (`--bench`, filters): they are
    // ignored, the suite always runs whole at quick scale.
    let p = Profile::quick();
    println!(
        "BBS figure suite at quick scale (D={}, V={}, m={}, tau={}%)\n",
        p.transactions, p.items, p.width, p.tau_pct
    );
    for figure in FIGURES {
        for table in (figure.run)(&p) {
            table.print();
        }
    }
}
