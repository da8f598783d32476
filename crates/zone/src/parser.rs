//! A master-file (zone file) parser covering the subset this system
//! serves: `$ORIGIN`, `$TTL`, comments, relative and absolute names, `@`,
//! and the record types A, AAAA, NS, SOA, CNAME, PTR, MX, TXT.
//!
//! Multi-line SOA records using parentheses are supported, since that is
//! how practically every real zone file writes its SOA.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use dnswild_proto::rdata::{Aaaa, Cname, Mx, Ns, Ptr, Soa, Txt, A};
use dnswild_proto::{Name, RData, Record};

use crate::zone::Zone;

/// Errors raised while parsing a zone file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses zone-file text into a [`Zone`].
///
/// `default_origin` is used until a `$ORIGIN` directive appears; pass the
/// zone's apex.
pub fn parse_zone(text: &str, default_origin: &Name) -> Result<Zone, ParseError> {
    let mut origin = default_origin.clone();
    let mut default_ttl: u32 = 3600;
    let mut last_owner: Option<Name> = None;
    let mut zone = Zone::new(default_origin.clone());

    for (idx, raw_line) in join_parentheses(text).into_iter() {
        let line = strip_comment(&raw_line);
        if line.trim().is_empty() {
            continue;
        }
        let err = |message: String| ParseError { line: idx, message };

        if let Some(rest) = line.trim_start().strip_prefix("$ORIGIN") {
            origin = parse_name(rest.trim(), &origin).map_err(&err)?;
            continue;
        }
        if let Some(rest) = line.trim_start().strip_prefix("$TTL") {
            default_ttl =
                rest.trim().parse().map_err(|_| err(format!("bad $TTL {:?}", rest.trim())))?;
            continue;
        }

        let starts_with_space = line.starts_with([' ', '\t']);
        let tokens = tokenize(&line);
        if tokens.is_empty() {
            continue;
        }
        let mut pos = 0;

        // Owner: inherited when the line starts with whitespace.
        let owner = if starts_with_space {
            last_owner.clone().ok_or_else(|| err("no previous owner to inherit".into()))?
        } else {
            let t = &tokens[pos];
            pos += 1;
            parse_name(t, &origin).map_err(&err)?
        };
        last_owner = Some(owner.clone());

        // Optional TTL and/or class, in either order.
        let mut ttl = default_ttl;
        let mut saw_type = None;
        while pos < tokens.len() {
            let t = tokens[pos].as_str();
            if let Ok(v) = t.parse::<u32>() {
                ttl = v;
                pos += 1;
            } else if t.eq_ignore_ascii_case("IN") || t.eq_ignore_ascii_case("CH") {
                pos += 1; // class accepted and ignored (IN assumed)
            } else {
                saw_type = Some(t.to_string());
                pos += 1;
                break;
            }
        }
        let rtype = saw_type.ok_or_else(|| err("missing record type".into()))?;
        let rest = &tokens[pos..];

        let rdata = parse_rdata(&rtype, rest, &origin).map_err(err)?;
        zone.insert(Record::new(owner, ttl, rdata));
    }
    Ok(zone)
}

/// Joins lines between `(` and `)` into one logical line, preserving the
/// starting line number for errors.
fn join_parentheses(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut pending: Option<(usize, String, i32)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let stripped = strip_comment(raw);
        let opens = stripped.matches('(').count() as i32;
        let closes = stripped.matches(')').count() as i32;
        match pending.take() {
            None => {
                if opens > closes {
                    pending = Some((line_no, stripped.replace('(', " "), opens - closes));
                } else {
                    out.push((line_no, stripped.replace(['(', ')'], " ")));
                }
            }
            Some((start, mut acc, depth)) => {
                acc.push(' ');
                acc.push_str(&stripped.replace(['(', ')'], " "));
                let depth = depth + opens - closes;
                if depth <= 0 {
                    out.push((start, acc));
                } else {
                    pending = Some((start, acc, depth));
                }
            }
        }
    }
    if let Some((start, acc, _)) = pending {
        out.push((start, acc)); // unbalanced: surface whatever we got
    }
    out
}

fn strip_comment(line: &str) -> String {
    // A ';' starts a comment unless inside a quoted string.
    let mut out = String::with_capacity(line.len());
    let mut in_quote = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                out.push(c);
            }
            ';' if !in_quote => break,
            _ => out.push(c),
        }
    }
    out
}

fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quote = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quote = !in_quote;
                if !in_quote {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c if c.is_whitespace() && !in_quote => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            _ => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

fn parse_name(token: &str, origin: &Name) -> Result<Name, String> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if token.ends_with('.') {
        return Name::parse(token).map_err(|e| e.to_string());
    }
    // Relative: append the origin.
    let relative = Name::parse(&format!("{token}.")).map_err(|e| e.to_string())?;
    Name::from_labels(relative.labels().chain(origin.labels())).map_err(|e| e.to_string())
}

fn parse_rdata(rtype: &str, args: &[String], origin: &Name) -> Result<RData, String> {
    let need = |n: usize| -> Result<(), String> {
        if args.len() < n {
            Err(format!("{rtype} needs {n} fields, got {}", args.len()))
        } else {
            Ok(())
        }
    };
    match rtype.to_ascii_uppercase().as_str() {
        "A" => {
            need(1)?;
            let addr: Ipv4Addr = args[0].parse().map_err(|_| format!("bad A {:?}", args[0]))?;
            Ok(RData::A(A::new(addr)))
        }
        "AAAA" => {
            need(1)?;
            let addr: Ipv6Addr =
                args[0].parse().map_err(|_| format!("bad AAAA {:?}", args[0]))?;
            Ok(RData::Aaaa(Aaaa::new(addr)))
        }
        "NS" => {
            need(1)?;
            Ok(RData::Ns(Ns::new(parse_name(&args[0], origin)?)))
        }
        "CNAME" => {
            need(1)?;
            Ok(RData::Cname(Cname::new(parse_name(&args[0], origin)?)))
        }
        "PTR" => {
            need(1)?;
            Ok(RData::Ptr(Ptr::new(parse_name(&args[0], origin)?)))
        }
        "MX" => {
            need(2)?;
            let pref: u16 =
                args[0].parse().map_err(|_| format!("bad MX preference {:?}", args[0]))?;
            Ok(RData::Mx(Mx::new(pref, parse_name(&args[1], origin)?)))
        }
        "TXT" => {
            need(1)?;
            Txt::new(args.iter().map(|s| s.as_bytes().to_vec())).map(RData::Txt).map_err(|e| e.to_string())
        }
        "SOA" => {
            need(7)?;
            let nums: Vec<u32> = args[2..7]
                .iter()
                .map(|s| s.parse::<u32>().map_err(|_| format!("bad SOA number {s:?}")))
                .collect::<Result<_, _>>()?;
            Ok(RData::Soa(Soa::new(
                parse_name(&args[0], origin)?,
                parse_name(&args[1], origin)?,
                nums[0],
                nums[1],
                nums[2],
                nums[3],
                nums[4],
            )))
        }
        other => Err(format!("unsupported record type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::Lookup;
    use dnswild_proto::RType;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    const ZONE_TEXT: &str = r#"
$ORIGIN ourtestdomain.nl.
$TTL 3600
@   IN  SOA ns1 hostmaster (
        2017041201 ; serial
        7200       ; refresh
        3600       ; retry
        604800     ; expire
        300 )      ; minimum
@       IN  NS  ns1
@       IN  NS  ns2.ourtestdomain.nl.
ns1     IN  A   203.0.113.1
ns2     IN  A   203.0.113.2
ns1     IN  AAAA 2001:db8::1
*.probe 5 IN TXT "@SITE@"
www     IN  CNAME web
web     IN  A   203.0.113.10
mail    IN  MX  10 mx1
mx1     IN  A   203.0.113.11
txt2    IN  TXT "part one" "part two"
"#;

    #[test]
    fn parses_full_zone() {
        let z = parse_zone(ZONE_TEXT, &name("ourtestdomain.nl")).unwrap();
        assert!(z.soa().is_some());
        assert_eq!(z.apex_ns().unwrap().len(), 2);
        assert_eq!(
            z.soa().unwrap().ttl,
            3600,
            "SOA gets the $TTL default"
        );
    }

    #[test]
    fn soa_fields_parsed() {
        let z = parse_zone(ZONE_TEXT, &name("ourtestdomain.nl")).unwrap();
        let soa = z.soa().unwrap();
        if let RData::Soa(s) = &soa.rdata {
            assert_eq!(s.serial, 2017041201);
            assert_eq!(s.minimum, 300);
            assert_eq!(s.mname, name("ns1.ourtestdomain.nl"));
        } else {
            panic!("not SOA");
        }
    }

    #[test]
    fn relative_and_absolute_names() {
        let z = parse_zone(ZONE_TEXT, &name("ourtestdomain.nl")).unwrap();
        assert!(z.get(&name("ns1.ourtestdomain.nl"), RType::A).is_some());
        assert!(z.get(&name("ns2.ourtestdomain.nl"), RType::A).is_some());
        assert!(z.get(&name("ns1.ourtestdomain.nl"), RType::Aaaa).is_some());
    }

    #[test]
    fn wildcard_with_explicit_ttl() {
        let z = parse_zone(ZONE_TEXT, &name("ourtestdomain.nl")).unwrap();
        match z.lookup(&name("xyz.probe.ourtestdomain.nl"), RType::Txt) {
            Lookup::Answer(answer) => assert_eq!(answer.records().next().unwrap().1.ttl, 5),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn quoted_txt_with_spaces_and_multiple_strings() {
        let z = parse_zone(ZONE_TEXT, &name("ourtestdomain.nl")).unwrap();
        let set = z.get(&name("txt2.ourtestdomain.nl"), RType::Txt).unwrap();
        if let RData::Txt(t) = &set.records()[0].rdata {
            assert_eq!(t.strings().count(), 2);
            assert_eq!(t.strings().next(), Some(&b"part one"[..]));
        } else {
            panic!("not TXT");
        }
    }

    #[test]
    fn mx_parsed() {
        let z = parse_zone(ZONE_TEXT, &name("ourtestdomain.nl")).unwrap();
        let set = z.get(&name("mail.ourtestdomain.nl"), RType::Mx).unwrap();
        if let RData::Mx(m) = &set.records()[0].rdata {
            assert_eq!(m.preference, 10);
            assert_eq!(m.exchange, name("mx1.ourtestdomain.nl"));
        } else {
            panic!("not MX");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let z =
            parse_zone("; just a comment\n\n@ IN SOA ns h 1 2 3 4 5\n", &name("x.nl")).unwrap();
        assert!(z.soa().is_some());
    }

    #[test]
    fn error_reports_line() {
        let bad = "@ IN SOA ns h 1 2 3 4 5\njunk IN BOGUS data\n";
        let e = parse_zone(bad, &name("x.nl")).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("BOGUS"));
    }

    #[test]
    fn missing_type_is_error() {
        let e = parse_zone("@ IN SOA ns h 1 2 3 4 5\nhost 300 IN\n", &name("x.nl")).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn owner_inheritance() {
        let text = "@ IN SOA ns h 1 2 3 4 5\nhost IN A 1.2.3.4\n     IN TXT \"x\"\n";
        let z = parse_zone(text, &name("x.nl")).unwrap();
        assert!(z.get(&name("host.x.nl"), RType::Txt).is_some());
    }
}
