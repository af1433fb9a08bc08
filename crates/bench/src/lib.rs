//! Command-line support for the `spatialdb-bench` binary that takes
//! flags: the paper's figures (`figures`). The other binary,
//! `scenarios`, takes none.

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
        assert_eq!(parse_flag(&args("bin --fig 8"), "--scale", 1.0), Ok(1.0));
    }

    #[test]
    fn a_well_formed_value_is_parsed() {
        let line = args("bin --scale 0.5 --fig 8 --out report.json");
        assert_eq!(parse_flag(&line, "--scale", 1.0), Ok(0.5));
        assert_eq!(
            parse_flag(&line, "--fig", String::new()),
            Ok(String::from("8"))
        );
        assert_eq!(
            parse_flag(&line, "--out", String::from("default.json")),
            Ok(String::from("report.json"))
        );
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_flag_and_value() {
        assert_eq!(
            parse_flag(&args("bin --scale 3%"), "--scale", 1.0),
            Err(String::from("--scale: cannot parse \"3%\""))
        );
    }

    #[test]
    fn a_trailing_flag_without_a_value_is_an_error() {
        assert_eq!(
            parse_flag(&args("bin --fig 8 --scale"), "--scale", 1.0),
            Err(String::from("--scale needs a value"))
        );
    }
}
