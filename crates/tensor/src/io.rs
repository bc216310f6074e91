//! Tensor I/O: FROSTT `.tns` text format and a compact binary format.
//!
//! The `.tns` format is the interchange format of the FROSTT collection
//! used throughout the sparse-tensor literature: one nonzero per line,
//! `N` whitespace-separated 1-based indices followed by the value; `#`
//! starts a comment. The binary format (`.adtm`) is a straightforward
//! little-endian dump used by the harness to cache generated datasets.

use crate::coo::{Idx, SparseTensor};
use rayon::prelude::*;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes opening the binary format.
const MAGIC: &[u8; 8] = b"ADTMTNS1";

/// Upper bound on the nonzero count a binary header may claim. Headers
/// are untrusted input; anything past this is a corrupt or hostile file,
/// not a dataset this library could process.
const MAX_NNZ: u64 = 1 << 40;

/// Cap on speculative `Vec::with_capacity` reservations while reading
/// length-prefixed sections. A lying header must not be able to trigger
/// a multi-GiB allocation before a single data byte is read; vectors
/// still grow to the true size as data actually arrives.
const MAX_PREALLOC: usize = 1 << 22;

/// Errors produced by tensor I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input could not be parsed; the message describes where.
    Parse(String),
    /// The input parsed but carries a NaN or infinite value; the message
    /// names the offending line or entry.
    NonFinite(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(m) => write!(f, "parse error: {m}"),
            IoError::NonFinite(m) => write!(f, "non-finite data: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Bytes of `.tns` text per parse block. A block grows past this only to
/// hold a line longer than itself; at most `current_num_threads()` blocks
/// are alive at once.
const BLOCK: usize = 4 << 20;

/// Reads a FROSTT `.tns` tensor from a reader.
///
/// The tensor order is inferred from the first data line; mode sizes are
/// the per-mode maxima of the (1-based) indices. Duplicate coordinates are
/// preserved (call [`SparseTensor::dedup_sum`] to canonicalize).
///
/// The text is read in fixed-size blocks cut at line ends, and up to
/// `current_num_threads()` blocks are parsed at once. Results are
/// appended in file order, and errors name the global line number: the
/// earliest faulty line in the file is reported, whatever the thread
/// count.
pub fn read_tns<R: Read>(reader: R) -> Result<SparseTensor, IoError> {
    read_tns_blocks(reader, BLOCK)
}

/// [`read_tns`] with an explicit block size (tests shrink it so lines
/// straddle block boundaries).
fn read_tns_blocks<R: Read>(mut reader: R, block: usize) -> Result<SparseTensor, IoError> {
    // One text buffer per worker, reused by every batch.
    let mut texts: Vec<Vec<u8>> = vec![Vec::new(); rayon::current_num_threads()];
    let mut tns = TnsBuilder::default();
    let mut carry = Vec::new();
    let mut fill = Fill::More;
    while matches!(fill, Fill::More) {
        let mut filled = 0;
        for text in &mut texts {
            fill = next_block(&mut reader, &mut carry, text, block);
            filled += 1;
            if !matches!(fill, Fill::More) {
                break;
            }
        }
        let parsed: Vec<TnsBlock> =
            texts[..filled].par_iter().map(|t| TnsBlock::parse(t)).collect();
        for b in parsed {
            tns.append(b)?;
        }
        if let Fill::Failed(e) = fill {
            return Err(IoError::Io(e));
        }
    }
    tns.finish()
}

/// What the reader has left after a block.
enum Fill {
    More,
    Eof,
    Failed(io::Error),
}

/// Reads the next block into `text`: the tail `carry`ed over from the
/// previous block, then bytes up to `block` in total, cut after the last
/// `\n` (the rest becomes the next carry). A block holding no `\n` keeps
/// reading, so a line is never split. At end of input the whole remainder
/// is the block. On a read error the block keeps only the complete lines
/// read before it.
fn next_block<R: Read>(
    reader: &mut R,
    carry: &mut Vec<u8>,
    text: &mut Vec<u8>,
    block: usize,
) -> Fill {
    text.clear();
    text.append(carry);
    let mut want = block.saturating_sub(text.len()).max(1);
    loop {
        text.reserve(want);
        match reader.by_ref().take(want as u64).read_to_end(text) {
            Ok(got) if got < want => return Fill::Eof,
            Ok(_) => {}
            Err(e) => {
                let keep = text.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                text.truncate(keep);
                return Fill::Failed(e);
            }
        }
        if let Some(p) = text.iter().rposition(|&b| b == b'\n') {
            carry.extend_from_slice(&text[p + 1..]);
            text.truncate(p + 1);
            return Fill::More;
        }
        want = block.max(1);
    }
}

/// Why a `.tns` line was rejected; [`LineFault::at`] turns it into the
/// error for its global line number.
enum LineFault {
    Utf8,
    TooFewFields,
    Arity { expected: usize, found: usize },
    BadIndex(String),
    ZeroIndex,
    IndexOverflow,
    BadValue,
    NonFinite(String),
}

impl LineFault {
    /// The error for this fault on 1-based line `line`.
    fn at(self, line: usize) -> IoError {
        match self {
            LineFault::Utf8 => IoError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )),
            LineFault::TooFewFields => IoError::Parse(format!("line {line}: too few fields")),
            LineFault::Arity { expected, found } => {
                IoError::Parse(format!("line {line}: expected {expected} indices, found {found}"))
            }
            LineFault::BadIndex(f) => IoError::Parse(format!("line {line}: bad index '{f}'")),
            LineFault::ZeroIndex => {
                IoError::Parse(format!("line {line}: indices are 1-based, found 0"))
            }
            LineFault::IndexOverflow => IoError::Parse(format!("line {line}: index overflow")),
            LineFault::BadValue => IoError::Parse(format!("line {line}: bad value")),
            LineFault::NonFinite(v) => {
                IoError::NonFinite(format!("line {line}: value '{v}' is not finite"))
            }
        }
    }
}

/// One parsed block: its own columns, dims and first-data-line arity.
/// Line numbers are 0-based within the block.
#[derive(Default)]
struct TnsBlock {
    /// `\n`-terminated lines in the block.
    lines: usize,
    /// Line and index count of the block's first data line.
    arity: Option<(usize, usize)>,
    inds: Vec<Vec<Idx>>,
    dims: Vec<usize>,
    vals: Vec<f64>,
    /// The block's first faulty line; parsing stops there.
    fault: Option<(usize, LineFault)>,
}

impl TnsBlock {
    fn parse(text: &[u8]) -> TnsBlock {
        let mut b = TnsBlock::default();
        let mut fields: Vec<&str> = Vec::new();
        for (lineno, raw) in text.split(|&c| c == b'\n').enumerate() {
            // `split` yields one piece more than there are `\n`s, so after
            // the last piece this counts the block's terminated lines.
            b.lines = lineno;
            if let Err(fault) = b.parse_line(lineno, raw, &mut fields) {
                b.fault = Some((lineno, fault));
                break;
            }
        }
        b
    }

    fn parse_line<'t>(
        &mut self,
        lineno: usize,
        raw: &'t [u8],
        fields: &mut Vec<&'t str>,
    ) -> Result<(), LineFault> {
        let line = std::str::from_utf8(raw).map_err(|_| LineFault::Utf8)?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return Ok(());
        }
        fields.clear();
        fields.extend(line.split_whitespace());
        if fields.len() < 2 {
            return Err(LineFault::TooFewFields);
        }
        let n = fields.len() - 1;
        match self.arity {
            None => {
                self.arity = Some((lineno, n));
                self.inds = vec![Vec::new(); n];
                self.dims = vec![0; n];
            }
            Some((_, expected)) if expected != n => {
                return Err(LineFault::Arity { expected, found: n });
            }
            Some(_) => {}
        }
        let (idx_fields, val_field) = fields.split_at(n);
        for ((f, col), dim) in idx_fields.iter().zip(&mut self.inds).zip(&mut self.dims) {
            let one_based: u64 = f.parse().map_err(|_| LineFault::BadIndex(f.to_string()))?;
            if one_based == 0 {
                return Err(LineFault::ZeroIndex);
            }
            let zero_based = one_based - 1;
            if zero_based > Idx::MAX as u64 {
                return Err(LineFault::IndexOverflow);
            }
            col.push(zero_based as Idx);
            *dim = (*dim).max(one_based as usize);
        }
        let v_field = val_field.first().copied().unwrap_or("");
        let v: f64 = v_field.parse().map_err(|_| LineFault::BadValue)?;
        if !v.is_finite() {
            return Err(LineFault::NonFinite(v_field.to_string()));
        }
        self.vals.push(v);
        Ok(())
    }
}

/// The tensor assembled so far from blocks appended in file order.
#[derive(Default)]
struct TnsBuilder {
    /// Lines in the blocks appended so far.
    lines: usize,
    arity: Option<usize>,
    inds: Vec<Vec<Idx>>,
    dims: Vec<usize>,
    vals: Vec<f64>,
}

impl TnsBuilder {
    /// Appends the next block, or returns the file's earliest error if
    /// the block holds one: its own fault, or a first data line whose
    /// arity differs from the file's first data line.
    fn append(&mut self, b: TnsBlock) -> Result<(), IoError> {
        if let Some((line, found)) = b.arity {
            match self.arity {
                None => {
                    self.arity = Some(found);
                    self.inds = vec![Vec::new(); found];
                    self.dims = vec![0; found];
                }
                Some(expected) if expected != found => {
                    if !matches!(b.fault, Some((f, _)) if f < line) {
                        let fault = LineFault::Arity { expected, found };
                        return Err(fault.at(self.lines + line + 1));
                    }
                }
                Some(_) => {}
            }
        }
        if let Some((line, fault)) = b.fault {
            return Err(fault.at(self.lines + line + 1));
        }
        for (col, part) in self.inds.iter_mut().zip(&b.inds) {
            col.extend_from_slice(part);
        }
        for (dim, &part) in self.dims.iter_mut().zip(&b.dims) {
            *dim = (*dim).max(part);
        }
        self.vals.extend_from_slice(&b.vals);
        self.lines += b.lines;
        Ok(())
    }

    fn finish(self) -> Result<SparseTensor, IoError> {
        if self.arity.is_none() {
            return Err(IoError::Parse("no data lines found".into()));
        }
        Ok(SparseTensor::new(self.dims, self.inds, self.vals))
    }
}

/// Reads a `.tns` file from disk.
pub fn read_tns_file<P: AsRef<Path>>(path: P) -> Result<SparseTensor, IoError> {
    read_tns(File::open(path)?)
}

/// Writes a tensor in FROSTT `.tns` format (1-based indices).
pub fn write_tns<W: Write>(t: &SparseTensor, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    for k in 0..t.nnz() {
        for d in 0..t.ndim() {
            write!(w, "{} ", t.mode_idx(d)[k] as u64 + 1)?;
        }
        writeln!(w, "{}", t.vals()[k])?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a `.tns` file to disk.
pub fn write_tns_file<P: AsRef<Path>>(t: &SparseTensor, path: P) -> Result<(), IoError> {
    write_tns(t, File::create(path)?)
}

/// Writes the compact binary format.
pub fn write_binary<W: Write>(t: &SparseTensor, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&(t.ndim() as u32).to_le_bytes())?;
    for &d in t.dims() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    w.write_all(&(t.nnz() as u64).to_le_bytes())?;
    for d in 0..t.ndim() {
        for &i in t.mode_idx(d) {
            w.write_all(&i.to_le_bytes())?;
        }
    }
    for &v in t.vals() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes the binary format to a file.
pub fn write_binary_file<P: AsRef<Path>>(t: &SparseTensor, path: P) -> Result<(), IoError> {
    write_binary(t, File::create(path)?)
}

/// Reads the compact binary format.
pub fn read_binary<R: Read>(reader: R) -> Result<SparseTensor, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::Parse("bad magic: not an adatm binary tensor".into()));
    }
    let ndim = read_u32(&mut r)? as usize;
    if ndim == 0 || ndim > 1024 {
        return Err(IoError::Parse(format!("implausible order {ndim}")));
    }
    let mut dims = Vec::with_capacity(ndim);
    for d in 0..ndim {
        let dim = read_u64(&mut r)?;
        if dim == 0 || dim > Idx::MAX as u64 + 1 {
            return Err(IoError::Parse(format!("mode {d}: dimension {dim} out of range")));
        }
        dims.push(dim as usize);
    }
    let nnz64 = read_u64(&mut r)?;
    if nnz64 > MAX_NNZ {
        return Err(IoError::Parse(format!("implausible nonzero count {nnz64}")));
    }
    let nnz = nnz64 as usize;
    let mut inds = Vec::with_capacity(ndim);
    for (d, &dim) in dims.iter().enumerate() {
        let mut col = Vec::with_capacity(nnz.min(MAX_PREALLOC));
        for k in 0..nnz {
            let i = read_u32(&mut r)?;
            if i as u64 >= dim as u64 {
                return Err(IoError::Parse(format!(
                    "mode {d} entry {k}: index {i} exceeds dimension {dim}"
                )));
            }
            col.push(i);
        }
        inds.push(col);
    }
    let mut vals = Vec::with_capacity(nnz.min(MAX_PREALLOC));
    for k in 0..nnz {
        let v = f64::from_le_bytes(read_arr::<8, _>(&mut r)?);
        if !v.is_finite() {
            return Err(IoError::NonFinite(format!("entry {k}: value {v} is not finite")));
        }
        vals.push(v);
    }
    Ok(SparseTensor::new(dims, inds, vals))
}

/// Reads the binary format from a file.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<SparseTensor, IoError> {
    read_binary(File::open(path)?)
}

fn read_arr<const K: usize, R: Read>(r: &mut R) -> Result<[u8; K], IoError> {
    let mut b = [0u8; K];
    r.read_exact(&mut b)?;
    Ok(b)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, IoError> {
    Ok(u32::from_le_bytes(read_arr::<4, _>(r)?))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    Ok(u64::from_le_bytes(read_arr::<8, _>(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufRead;

    /// The line-at-a-time reader the block-parallel parser replaced, kept
    /// verbatim as the oracle for its output and errors.
    fn read_tns_lines<R: Read>(reader: R) -> Result<SparseTensor, IoError> {
        let buf = BufReader::new(reader);
        let mut inds: Vec<Vec<Idx>> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut dims: Vec<usize> = Vec::new();
        for (lineno, line) in buf.lines().enumerate() {
            let line = line?;
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() < 2 {
                return Err(IoError::Parse(format!("line {}: too few fields", lineno + 1)));
            }
            let n = fields.len() - 1;
            if inds.is_empty() {
                inds = vec![Vec::new(); n];
                dims = vec![0; n];
            } else if n != inds.len() {
                return Err(IoError::Parse(format!(
                    "line {}: expected {} indices, found {n}",
                    lineno + 1,
                    inds.len()
                )));
            }
            for (d, f) in fields[..n].iter().enumerate() {
                let one_based: u64 = f
                    .parse()
                    .map_err(|_| IoError::Parse(format!("line {}: bad index '{f}'", lineno + 1)))?;
                if one_based == 0 {
                    return Err(IoError::Parse(format!(
                        "line {}: indices are 1-based, found 0",
                        lineno + 1
                    )));
                }
                let zero_based = one_based - 1;
                if zero_based > Idx::MAX as u64 {
                    return Err(IoError::Parse(format!("line {}: index overflow", lineno + 1)));
                }
                inds[d].push(zero_based as Idx);
                dims[d] = dims[d].max(one_based as usize);
            }
            let v: f64 = fields[n]
                .parse()
                .map_err(|_| IoError::Parse(format!("line {}: bad value", lineno + 1)))?;
            if !v.is_finite() {
                return Err(IoError::NonFinite(format!(
                    "line {}: value '{}' is not finite",
                    lineno + 1,
                    fields[n]
                )));
            }
            vals.push(v);
        }
        if inds.is_empty() {
            return Err(IoError::Parse("no data lines found".into()));
        }
        Ok(SparseTensor::new(dims, inds, vals))
    }

    /// Same tensor (values bit for bit), or the same error variant,
    /// kind and message.
    fn same_outcome(
        got: &Result<SparseTensor, IoError>,
        want: &Result<SparseTensor, IoError>,
    ) -> Result<(), String> {
        let bits = |t: &SparseTensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let same = match (got, want) {
            (Ok(a), Ok(b)) => a == b && bits(a) == bits(b),
            (Err(IoError::Io(a)), Err(IoError::Io(b))) => {
                a.kind() == b.kind() && a.to_string() == b.to_string()
            }
            (Err(IoError::Parse(a)), Err(IoError::Parse(b)))
            | (Err(IoError::NonFinite(a)), Err(IoError::NonFinite(b))) => a == b,
            _ => false,
        };
        if same {
            Ok(())
        } else {
            Err(format!("got {got:?}, want {want:?}"))
        }
    }

    /// Field separators, including non-ASCII whitespace.
    const SEPS: [&str; 5] = [" ", "\t", "  ", "\u{a0}", "\u{3000}"];
    /// Non-finite spellings `f64::from_str` accepts.
    const NON_FINITE: [&str; 4] = ["nan", "inf", "-inf", "Infinity"];

    /// Renders one `.tns` line (without its `\n`) from drawn numbers.
    /// Kinds 0..=39 are well-formed (data, comments, blanks, CRLF, `+`
    /// signs, tabs, a lone `\r`); 40..=48 each make one kind of malformed line.
    fn render_line(kind: u32, i: u64, j: u64, k: u64, v: f64, sep: usize) -> Vec<u8> {
        let s = SEPS[sep % SEPS.len()];
        let data = format!("{i}{s}{j}{s}{k}{s}{v}");
        let line = match kind {
            0..=19 => data,
            20..=23 => format!("{data}\r"),
            24..=26 => format!("# comment {i} \u{e9}\u{2713}"),
            27..=29 => String::new(),
            30 => format!("{s}\t "),
            31..=33 => format!("{data} # trailing {j}"),
            34..=35 => format!("+{i}{s}{j}{s}+{k}{s}+{v}"),
            36..=37 => format!("{s}{data}{s}"),
            38..=39 => format!("{i}{s}{j}\r{k}{s}{v}"),
            40 => format!("{i}"),
            41 => format!("{i}{s}{j}{s}{k}{s}{i}{s}{v}"),
            42 => format!("0{s}{j}{s}{k}{s}{v}"),
            43 => format!("{i}{s}{j}{s}{k}{s}{}", NON_FINITE[sep % NON_FINITE.len()]),
            44 => format!("{i}{s}{j}{s}{k}{s}abc"),
            45 => format!("{i}{s}x{j}{s}{k}{s}{v}"),
            46 => format!("{i}{s}4294967297{s}{k}{s}{v}"),
            47 => format!("{i}{s}x{s}{v}"),
            _ => return [data.as_bytes(), b" \xff\xfe"].concat(),
        };
        line.into_bytes()
    }

    /// Runs `f` with `current_num_threads()` reporting `threads`.
    fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("infallible").install(f)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_block_parser_matches_line_reader(
            lines in proptest::collection::vec(
                (0u32..49, (1u64..9, 1u64..9, 1u64..9), -4.0f64..4.0, 0usize..20),
                0..40,
            ),
            // Mostly well-formed files: errors past the first stop the
            // comparison, so rare malformed lines keep the rest covered.
            clean in (0u32..4).prop_map(|c| c > 0),
            final_newline in (0u32..2).prop_map(|b| b == 1),
            block in 1usize..48,
        ) {
            let mut text = Vec::new();
            for (n, &(kind, (i, j, k), v, sep)) in lines.iter().enumerate() {
                let kind = if clean { kind % 40 } else { kind };
                text.extend(render_line(kind, i, j, k, v, sep));
                if n + 1 < lines.len() || final_newline {
                    text.push(b'\n');
                }
            }
            let want = read_tns_lines(&text[..]);
            for threads in [1, 3] {
                let got = with_threads(threads, || read_tns_blocks(&text[..], block));
                same_outcome(&got, &want)
                    .map_err(|m| TestCaseError::Fail(format!("{threads}t block {block}: {m}")))?;
            }
            same_outcome(&read_tns(&text[..]), &want).map_err(TestCaseError::Fail)?;
        }
    }

    #[test]
    fn block_parser_reports_the_earliest_error_across_blocks() {
        // Line 2 has the wrong arity and line 5 a bad value; with 8-byte
        // blocks they land in different blocks parsed side by side.
        let text = "1 1 1 1.0\n2 2 2.0\n\n# c\n1 1 1 x\n";
        for threads in [1, 2, 4] {
            let err = with_threads(threads, || read_tns_blocks(text.as_bytes(), 8)).unwrap_err();
            assert_eq!(err.to_string(), "parse error: line 2: expected 3 indices, found 2");
        }
        // The arity check comes before the fields are parsed, also when
        // the faulty line opens a block.
        let err = read_tns_blocks("1 1 1 1.0\n2 x 2.0\n".as_bytes(), 10).unwrap_err();
        assert_eq!(err.to_string(), "parse error: line 2: expected 3 indices, found 2");
        let err = read_tns_blocks("# x\n\n1 2\n1 2 3\n".as_bytes(), 4).unwrap_err();
        assert_eq!(err.to_string(), "parse error: line 4: expected 1 indices, found 2");
    }

    #[test]
    fn block_parser_keeps_lines_longer_than_a_block_whole() {
        let long = format!("{} 7 {}\n3 4 1.5", "0".repeat(300) + "2", "1".repeat(200));
        let t = read_tns_blocks(long.as_bytes(), 16).unwrap();
        assert_eq!(t.dims(), &[3, 7]);
        assert_eq!(t.vals()[0], "1".repeat(200).parse::<f64>().unwrap());
        assert_eq!(t.get(&[2, 3]), 1.5);
    }

    #[test]
    fn block_parser_rejects_invalid_utf8_as_io_invalid_data() {
        let err = read_tns(&b"1 1 1.0\n1 \xc3 2.0\n"[..]).unwrap_err();
        assert!(matches!(err, IoError::Io(ref e) if e.kind() == io::ErrorKind::InvalidData));
        let want = read_tns_lines(&b"1 1 1.0\n1 \xc3 2.0\n"[..]).unwrap_err();
        assert_eq!(err.to_string(), want.to_string());
    }

    /// A reader that yields `data` and then fails.
    struct FailAfter<'a> {
        data: &'a [u8],
    }

    impl Read for FailAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() {
                return Err(io::Error::other("device gone"));
            }
            let n = self.data.read(buf)?;
            Ok(n)
        }
    }

    #[test]
    fn block_parser_reports_a_read_error_after_earlier_lines() {
        let err = read_tns_blocks(FailAfter { data: b"1 1 1.0\n2 2 2.0\n1 1" }, 64).unwrap_err();
        assert!(matches!(err, IoError::Io(ref e) if e.to_string() == "device gone"), "{err}");
        // A parse error on a line read before the failure comes first.
        let err = read_tns_blocks(FailAfter { data: b"1 1 1.0\n0 2 2.0\n1 1" }, 64).unwrap_err();
        assert_eq!(err.to_string(), "parse error: line 2: indices are 1-based, found 0");
    }

    fn toy() -> SparseTensor {
        SparseTensor::from_entries(
            vec![3, 4, 2],
            &[(vec![0, 3, 1], 1.5), (vec![2, 0, 0], -2.0), (vec![1, 1, 1], 0.25)],
        )
    }

    #[test]
    fn tns_round_trip() {
        let t = toy();
        let mut buf = Vec::new();
        write_tns(&t, &mut buf).unwrap();
        let back = read_tns(&buf[..]).unwrap();
        assert_eq!(back.ndim(), 3);
        assert_eq!(back.nnz(), 3);
        assert_eq!(back.get(&[0, 3, 1]), 1.5);
        assert_eq!(back.get(&[2, 0, 0]), -2.0);
    }

    #[test]
    fn tns_parses_comments_and_blank_lines() {
        let text = "# a comment\n\n1 1 2.5 # trailing comment\n2 3 -1\n";
        let t = read_tns(text.as_bytes()).unwrap();
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[0, 0]), 2.5);
        assert_eq!(t.get(&[1, 2]), -1.0);
    }

    #[test]
    fn tns_rejects_zero_index() {
        let err = read_tns("0 1 2.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
    }

    #[test]
    fn tns_rejects_inconsistent_arity() {
        let err = read_tns("1 1 1 2.0\n1 1 3.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
    }

    #[test]
    fn tns_rejects_empty_input() {
        assert!(matches!(read_tns("# only comments\n".as_bytes()), Err(IoError::Parse(_))));
    }

    #[test]
    fn tns_parses_scientific_notation_and_negatives() {
        let t = read_tns("1 2 1.5e-3\n3 1 -2.25E+2\n2 2 .5\n".as_bytes()).unwrap();
        assert_eq!(t.nnz(), 3);
        assert!((t.get(&[0, 1]) - 1.5e-3).abs() < 1e-18);
        assert_eq!(t.get(&[2, 0]), -225.0);
        assert_eq!(t.get(&[1, 1]), 0.5);
    }

    #[test]
    fn tns_preserves_duplicates_for_caller_to_dedup() {
        let mut t = read_tns("1 1 2.0\n1 1 3.0\n".as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        t.dedup_sum();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(&[0, 0]), 5.0);
    }

    #[test]
    fn tns_rejects_non_finite_values_naming_the_line() {
        for bad in ["nan", "NaN", "inf", "-inf", "Infinity"] {
            let text = format!("1 1 2.0\n2 2 {bad}\n");
            let err = read_tns(text.as_bytes()).unwrap_err();
            match err {
                IoError::NonFinite(m) => assert!(m.contains("line 2"), "{bad}: {m}"),
                other => panic!("{bad}: expected NonFinite, got {other}"),
            }
        }
    }

    #[test]
    fn binary_rejects_non_finite_values_naming_the_entry() {
        let t =
            SparseTensor::from_entries(vec![2, 2], &[(vec![0, 0], 1.0), (vec![1, 1], f64::NAN)]);
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        match read_binary(&buf[..]).unwrap_err() {
            IoError::NonFinite(m) => assert!(m.contains("entry 1"), "{m}"),
            other => panic!("expected NonFinite, got {other}"),
        }
    }

    #[test]
    fn binary_rejects_giant_nnz_header_without_allocating() {
        // A header claiming u64::MAX nonzeros must fail fast on the
        // sanity cap, not attempt a multi-GiB reservation.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(ref m) if m.contains("nonzero count")), "{err}");
    }

    #[test]
    fn binary_rejects_out_of_range_dimension() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(ref m) if m.contains("dimension")), "{err}");
    }

    #[test]
    fn binary_rejects_index_beyond_declared_dimension() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes()); // index 7 in a dim-3 mode
        buf.extend_from_slice(&1.0f64.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(ref m) if m.contains("exceeds")), "{err}");
    }

    #[test]
    fn binary_lying_nnz_with_truncated_body_errors_cleanly() {
        // Plausible-but-wrong nnz (1000) with only one entry's worth of
        // data: the reader must surface a clean I/O error, not panic.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&10u64.to_le_bytes());
        buf.extend_from_slice(&1000u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Io(_)), "{err}");
    }

    #[test]
    fn binary_round_trip_exact() {
        let t = toy();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTMAGICristretto"[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse(_)));
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir();
        let t = toy();
        let tns = dir.join("adatm_io_test.tns");
        let bin = dir.join("adatm_io_test.adtm");
        write_tns_file(&t, &tns).unwrap();
        write_binary_file(&t, &bin).unwrap();
        let a = read_tns_file(&tns).unwrap();
        let b = read_binary_file(&bin).unwrap();
        assert_eq!(a.nnz(), t.nnz());
        assert_eq!(b, t);
        let _ = std::fs::remove_file(tns);
        let _ = std::fs::remove_file(bin);
    }
}
