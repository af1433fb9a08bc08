//! Command-line support shared by the `spatialdb-bench` binaries: the
//! paper's figures (`figures`) and the latency, declustering, mixed
//! read-write, scenario and bulk-load reports.

use std::str::FromStr;

/// `--name <value>` out of `args`, parsed as `T`; `default` when the
/// flag is absent. A flag that is given must carry a well-formed value:
/// the error names both.
fn parse_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// The value of the `--name <value>` command-line flag, or `default`
/// when the flag is absent. A malformed or missing value ends the
/// process with a nonzero status and a message naming flag and value —
/// it never silently runs the default.
pub fn parsed<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, name, default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn an_absent_flag_takes_the_default() {
        assert_eq!(
            parse_flag(&args("bin --queries 160"), "--objects", 6000),
            Ok(6000)
        );
    }

    #[test]
    fn a_well_formed_value_is_parsed() {
        let line = args("bin --objects 800 --load 0.5 --out report.json");
        assert_eq!(parse_flag(&line, "--objects", 6000), Ok(800));
        assert_eq!(parse_flag(&line, "--load", 0.9), Ok(0.5));
        assert_eq!(
            parse_flag(&line, "--out", String::from("default.json")),
            Ok(String::from("report.json"))
        );
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_flag_and_value() {
        assert_eq!(
            parse_flag(&args("bin --objects 6k"), "--objects", 6000),
            Err(String::from("--objects: cannot parse \"6k\""))
        );
    }

    #[test]
    fn a_trailing_flag_without_a_value_is_an_error() {
        assert_eq!(
            parse_flag(&args("bin --queries 160 --objects"), "--objects", 6000),
            Err(String::from("--objects needs a value"))
        );
    }
}
