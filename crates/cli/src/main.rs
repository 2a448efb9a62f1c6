//! The `ocpt` binary: see `ocpt help`.

fn main() {
    let args = match ocpt_cli::args::Args::parse(std::env::args().skip(1), ocpt_cli::BOOL_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = ocpt_cli::dispatch(&args, &mut std::io::stdout().lock()) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
