//! Regenerates the paper's figures: `figures <name>…`, `figures --all`, or
//! `figures --list` for the names.  Runs at the paper's scale; `--quick`
//! (or `BBS_PROFILE=quick`) selects the scaled-down profile.

use bbs_bench::experiments::FIGURES;
use bbs_bench::Profile;

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    if args.iter().any(|a| a == "--list") {
        for figure in FIGURES {
            println!("{:<22}{}", figure.name, figure.about);
        }
        return;
    }
    let all = args.iter().any(|a| a == "--all");
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| *a != "--all" && !FIGURES.iter().any(|f| f.name == **a))
        .collect();
    if !unknown.is_empty() || args.is_empty() {
        eprintln!("usage: figures [--quick] <name>… | --all | --list");
        for name in unknown {
            eprintln!("unknown figure {name:?} (see --list)");
        }
        std::process::exit(2);
    }
    let profile = Profile::from_env_and_args();
    for figure in FIGURES {
        if all || args.iter().any(|a| a == figure.name) {
            for table in (figure.run)(&profile) {
                table.print();
            }
        }
    }
}
