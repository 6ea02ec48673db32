//! Constructors for the classic multistage interconnection networks.
//!
//! Every binary MIN here (`omega`, `baseline`, `generalized_cube`,
//! `indirect_cube`, `benes`, `omega_extra_stage`) is expressed through one
//! shared frame, [`min_from_permutations`]: `stages` stages of `N/2` 2×2
//! switchboxes with a wiring permutation in front of each stage and a final
//! permutation to the resources. The non-binary networks (`crossbar`,
//! `clos`, `delta`, `gamma`) are wired explicitly.
//!
//! The paper's examples run on the 8×8 Omega (Figs. 2, 5, 9) and the 8×8
//! cube (the "2 % blocking" simulation); extra-stage augmentation implements
//! the remark that "if extra stages are provided, there will be more paths
//! available … finding an optimal mapping becomes less critical".

use crate::network::{Network, NetworkBuilder, NetworkError};
use crate::perm;

fn require_power_of_two(n: usize) -> Result<u32, NetworkError> {
    if n < 2 || !n.is_power_of_two() {
        return Err(NetworkError::BadParameter(format!(
            "size {n} must be a power of two >= 2"
        )));
    }
    Ok(n.trailing_zeros())
}

/// Build an `n × n` MIN of 2×2 boxes from inter-stage wiring permutations.
///
/// * `wiring[s]` maps line `x` (processor index for `s = 0`, otherwise the
///   global output-line index `2·box + port` of stage `s-1`) to the global
///   input-line index of stage `s`;
/// * `final_perm` maps stage `stages-1` output lines to resource indices.
///
/// Input line `ℓ` of a stage feeds box `ℓ/2`, port `ℓ%2`.
pub fn min_from_permutations(
    name: &str,
    n: usize,
    wiring: &[&dyn Fn(usize) -> usize],
    final_perm: &dyn Fn(usize) -> usize,
) -> Result<Network, NetworkError> {
    require_power_of_two(n)?;
    let stages = wiring.len();
    if stages == 0 {
        return Err(NetworkError::BadParameter("need at least one stage".into()));
    }
    let boxes_per_stage = n / 2;
    let mut b = NetworkBuilder::new(name, n, n);
    for s in 0..stages {
        for _ in 0..boxes_per_stage {
            b.add_box(s, 2, 2);
        }
    }
    let box_at = |stage: usize, idx: usize| stage * boxes_per_stage + idx;
    // Processors into stage 0.
    for p in 0..n {
        let line = wiring[0](p);
        b.link_proc_to_box(p, box_at(0, line / 2), line % 2);
    }
    // Stage s-1 outputs into stage s.
    for (s, wire) in wiring.iter().enumerate().skip(1) {
        for x in 0..n {
            let line = wire(x);
            b.link_box_to_box(box_at(s - 1, x / 2), x % 2, box_at(s, line / 2), line % 2);
        }
    }
    // Final stage to resources.
    for x in 0..n {
        b.link_box_to_res(box_at(stages - 1, x / 2), x % 2, final_perm(x));
    }
    b.build()
}

/// Lawrie's Omega network: `log₂ n` stages, each preceded by the perfect
/// shuffle.
pub fn omega(n: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    let shuffle = move |x: usize| perm::perfect_shuffle(x, bits);
    let wiring: Vec<&dyn Fn(usize) -> usize> = vec![&shuffle; bits as usize];
    min_from_permutations(&format!("omega-{n}"), n, &wiring, &|x| x)
}

/// A `d`-dilated Omega network: same shuffle-exchange structure, but every
/// *interior* link is replicated `d` times (boxes become `2d×2d` in the
/// middle, `2×2d` at the first stage and `2d×2` at the last). Dilation is
/// the other classic way (besides extra stages) to add alternate paths and
/// cut blocking; processor and resource attachments stay single links.
pub fn omega_dilated(n: usize, d: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    if d == 0 {
        return Err(NetworkError::BadParameter("dilation must be >= 1".into()));
    }
    if bits < 2 {
        return Err(NetworkError::BadParameter(
            "dilated omega needs >= 2 stages".into(),
        ));
    }
    let stages = bits as usize;
    let boxes_per_stage = n / 2;
    let mut b = NetworkBuilder::new(format!("omega-{n}x{d}"), n, n);
    for s in 0..stages {
        let (inputs, outputs) = if s == 0 {
            (2, 2 * d)
        } else if s == stages - 1 {
            (2 * d, 2)
        } else {
            (2 * d, 2 * d)
        };
        for _ in 0..boxes_per_stage {
            b.add_box(s, inputs, outputs);
        }
    }
    let box_at = |stage: usize, idx: usize| stage * boxes_per_stage + idx;
    // Processors into stage 0 through the shuffle (single links).
    for p in 0..n {
        let line = perm::perfect_shuffle(p, bits);
        b.link_proc_to_box(p, box_at(0, line / 2), line % 2);
    }
    // Interior: logical line x of stage s-1 output, sublink c.
    for s in 1..stages {
        for x in 0..n {
            let line = perm::perfect_shuffle(x, bits);
            for c in 0..d {
                b.link_box_to_box(
                    box_at(s - 1, x / 2),
                    (x % 2) * d + c,
                    box_at(s, line / 2),
                    (line % 2) * d + c,
                );
            }
        }
    }
    // Last stage to resources (single links).
    for x in 0..n {
        b.link_box_to_res(box_at(stages - 1, x / 2), x % 2, x);
    }
    b.build()
}

/// Batcher's Flip network (STARAN): the Omega run backwards — `log₂ n`
/// stages each preceded by the *inverse* perfect shuffle. Topologically a
/// banyan like the Omega; listed in the paper's survey of address-mapped
/// networks (reference \[3\]).
pub fn flip(n: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    let unshuffle = move |x: usize| perm::inverse_shuffle(x, bits);
    let wiring: Vec<&dyn Fn(usize) -> usize> = vec![&unshuffle; bits as usize];
    min_from_permutations(&format!("flip-{n}"), n, &wiring, &|x| x)
}

/// Omega network with `extra` additional shuffle-exchange stages appended
/// (more alternate paths, hence fewer blockages).
pub fn omega_extra_stage(n: usize, extra: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    let shuffle = move |x: usize| perm::perfect_shuffle(x, bits);
    let wiring: Vec<&dyn Fn(usize) -> usize> = vec![&shuffle; bits as usize + extra];
    min_from_permutations(&format!("omega-{n}+{extra}"), n, &wiring, &|x| x)
}

/// A 3-disjoint-paths Omega network (after Rastogi et al.'s 3DP Omega
/// stability analysis): three full Omega *planes* in parallel, entered
/// through a 1×3 fan-out box per processor and merged by a 3×1 box per
/// resource. Every processor/resource pair has (at least) three mutually
/// arc-disjoint routes through the fabric — one per plane — so no single
/// interior link, box, or even whole-plane domain failure can disconnect a
/// pair. Box order: `n` entry boxes (stage 0), then `bits` interior stages
/// of `3·n/2` boxes (plane-major within each stage), then `n` exit boxes.
pub fn omega_3dp(n: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    let stages = bits as usize;
    let boxes_per_plane_stage = n / 2;
    let mut b = NetworkBuilder::new(format!("3dp-omega-{n}"), n, n);
    let entry: Vec<usize> = (0..n).map(|_| b.add_box(0, 1, 3)).collect();
    for s in 0..stages {
        for _ in 0..3 * boxes_per_plane_stage {
            b.add_box(1 + s, 2, 2);
        }
    }
    let exit: Vec<usize> = (0..n).map(|_| b.add_box(1 + stages, 3, 1)).collect();
    // Interior stages were added stage-major, planes contiguous within each.
    let plane_box =
        |plane: usize, s: usize, idx: usize| n + (s * 3 + plane) * boxes_per_plane_stage + idx;
    for (p, &e) in entry.iter().enumerate() {
        b.link_proc_to_box(p, e, 0);
    }
    for plane in 0..3 {
        // Entry fan-out through the perfect shuffle, one output per plane.
        for (p, &e) in entry.iter().enumerate() {
            let line = perm::perfect_shuffle(p, bits);
            b.link_box_to_box(e, plane, plane_box(plane, 0, line / 2), line % 2);
        }
        // Plane interior: plain Omega shuffle-exchange stages.
        for s in 1..stages {
            for x in 0..n {
                let line = perm::perfect_shuffle(x, bits);
                b.link_box_to_box(
                    plane_box(plane, s - 1, x / 2),
                    x % 2,
                    plane_box(plane, s, line / 2),
                    line % 2,
                );
            }
        }
        // Plane output line x merges into exit box x on its plane's port.
        for (x, &e) in exit.iter().enumerate() {
            b.link_box_to_box(plane_box(plane, stages - 1, x / 2), x % 2, e, plane);
        }
    }
    for (r, &e) in exit.iter().enumerate() {
        b.link_box_to_res(e, 0, r);
    }
    b.build()
}

/// Wu–Feng baseline network: recursive halving; the pattern after stage `s`
/// is the inverse shuffle within blocks of size `n/2^s`.
pub fn baseline(n: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    let identity = |x: usize| x;
    let blocks: Vec<Box<dyn Fn(usize) -> usize>> = (1..bits as usize)
        .map(|s| {
            let bb = bits - s as u32 + 1;
            Box::new(move |x: usize| perm::block_inverse_shuffle(x, bb))
                as Box<dyn Fn(usize) -> usize>
        })
        .collect();
    let mut wiring: Vec<&dyn Fn(usize) -> usize> = vec![&identity];
    for f in &blocks {
        wiring.push(f.as_ref());
    }
    min_from_permutations(&format!("baseline-{n}"), n, &wiring, &|x| x)
}

/// Bit-controlled banyan: stage `s` pairs lines differing in bit
/// `bit_order[s]`. MSB-first gives Siegel's generalized cube; LSB-first
/// gives Pease's indirect binary n-cube.
fn banyan_by_bits(name: &str, n: usize, bit_order: &[u32]) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    if bit_order.len() != bits as usize || bit_order.iter().any(|&k| k >= bits) {
        return Err(NetworkError::BadParameter(
            "bit order must list each bit once".into(),
        ));
    }
    // wiring[s]: previous physical line -> logical line -> this stage's slot.
    let order = bit_order.to_vec();
    let fns: Vec<Box<dyn Fn(usize) -> usize>> = (0..order.len())
        .map(|s| {
            let k = order[s];
            let prev = if s > 0 { Some(order[s - 1]) } else { None };
            Box::new(move |x: usize| {
                let logical = match prev {
                    Some(pk) => perm::move_lsb_to_bit(x, pk),
                    None => x,
                };
                perm::move_bit_to_lsb(logical, k)
            }) as Box<dyn Fn(usize) -> usize>
        })
        .collect();
    let wiring: Vec<&dyn Fn(usize) -> usize> = fns.iter().map(|f| f.as_ref()).collect();
    let last = *order.last().unwrap();
    let final_perm = move |x: usize| perm::move_lsb_to_bit(x, last);
    min_from_permutations(name, n, &wiring, &final_perm)
}

/// Siegel's generalized cube network (exchanges bit `n−1` first). This is
/// the "8 × 8 cube network" of the paper's blocking simulation.
pub fn generalized_cube(n: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    let order: Vec<u32> = (0..bits).rev().collect();
    banyan_by_bits(&format!("cube-{n}"), n, &order)
}

/// Pease's indirect binary n-cube (exchanges bit 0 first).
pub fn indirect_cube(n: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)?;
    let order: Vec<u32> = (0..bits).collect();
    banyan_by_bits(&format!("indirect-cube-{n}"), n, &order)
}

/// Benes rearrangeable network: `2·log₂ n − 1` stages (baseline-style
/// scatter, then mirrored gather).
pub fn benes(n: usize) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)? as usize;
    let identity = |x: usize| x;
    let mut owned: Vec<Box<dyn Fn(usize) -> usize>> = Vec::new();
    for s in 1..bits {
        let bb = (bits - s + 1) as u32;
        owned.push(Box::new(move |x: usize| perm::block_inverse_shuffle(x, bb)));
    }
    for s in bits..(2 * bits - 1) {
        let bb = (s - bits + 2) as u32;
        owned.push(Box::new(move |x: usize| perm::block_perfect_shuffle(x, bb)));
    }
    let mut wiring: Vec<&dyn Fn(usize) -> usize> = vec![&identity];
    for f in &owned {
        wiring.push(f.as_ref());
    }
    min_from_permutations(&format!("benes-{n}"), n, &wiring, &|x| x)
}

/// A single `n × m` crossbar switchbox (strictly nonblocking).
pub fn crossbar(n: usize, m: usize) -> Result<Network, NetworkError> {
    if n == 0 || m == 0 {
        return Err(NetworkError::BadParameter(
            "crossbar needs n, m >= 1".into(),
        ));
    }
    let mut b = NetworkBuilder::new(format!("crossbar-{n}x{m}"), n, m);
    let bx = b.add_box(0, n, m);
    for p in 0..n {
        b.link_proc_to_box(p, bx, p);
    }
    for r in 0..m {
        b.link_box_to_res(bx, r, r);
    }
    b.build()
}

/// Three-stage Clos network `C(m, n, r)`: `r` input boxes of size `n×m`,
/// `m` middle boxes of size `r×r`, `r` output boxes of size `m×n`;
/// `n·r` processors and resources.
pub fn clos(m: usize, n: usize, r: usize) -> Result<Network, NetworkError> {
    if m == 0 || n == 0 || r == 0 {
        return Err(NetworkError::BadParameter("clos needs m, n, r >= 1".into()));
    }
    let ports = n * r;
    let mut b = NetworkBuilder::new(format!("clos-{m}-{n}-{r}"), ports, ports);
    let ins: Vec<usize> = (0..r).map(|_| b.add_box(0, n, m)).collect();
    let mids: Vec<usize> = (0..m).map(|_| b.add_box(1, r, r)).collect();
    let outs: Vec<usize> = (0..r).map(|_| b.add_box(2, m, n)).collect();
    for p in 0..ports {
        b.link_proc_to_box(p, ins[p / n], p % n);
    }
    for (i, &ib) in ins.iter().enumerate() {
        for (j, &mb) in mids.iter().enumerate() {
            b.link_box_to_box(ib, j, mb, i);
        }
    }
    for (j, &mb) in mids.iter().enumerate() {
        for (i, &ob) in outs.iter().enumerate() {
            b.link_box_to_box(mb, i, ob, j);
        }
    }
    for q in 0..ports {
        b.link_box_to_res(outs[q / n], q % n, q);
    }
    b.build()
}

/// Patel's delta network `aⁿ × aⁿ` built from `a×a` boxes with `a`-ary
/// shuffle wiring (for `a = 2` this coincides with the Omega network).
pub fn delta(a: usize, digits: u32) -> Result<Network, NetworkError> {
    if a < 2 || digits == 0 {
        return Err(NetworkError::BadParameter(
            "delta needs a >= 2, digits >= 1".into(),
        ));
    }
    let n = a
        .checked_pow(digits)
        .ok_or_else(|| NetworkError::BadParameter(format!("delta size {a}^{digits} overflows")))?;
    let boxes_per_stage = n / a;
    let mut b = NetworkBuilder::new(format!("delta-{a}^{digits}"), n, n);
    for s in 0..digits as usize {
        for _ in 0..boxes_per_stage {
            b.add_box(s, a, a);
        }
    }
    let box_at = |stage: usize, idx: usize| stage * boxes_per_stage + idx;
    for p in 0..n {
        let line = perm::ary_shuffle(p, a, digits);
        b.link_proc_to_box(p, box_at(0, line / a), line % a);
    }
    for s in 1..digits as usize {
        for x in 0..n {
            let line = perm::ary_shuffle(x, a, digits);
            b.link_box_to_box(box_at(s - 1, x / a), x % a, box_at(s, line / a), line % a);
        }
    }
    for x in 0..n {
        b.link_box_to_res(box_at(digits as usize - 1, x / a), x % a, x);
    }
    b.build()
}

/// A gamma-like redundant-path network: `n = 2^bits` lines, `bits` columns
/// of boxes where column `i`, box `j` connects *straight* to box `j`, *plus*
/// to box `j + d mod n`, and *minus* to box `j − d mod n` of the next
/// column, with distance `d = 2^i` ascending (the minus link is omitted at
/// the column where ± coincide). Multiple redundant paths exist between
/// most source–destination pairs, which is why the paper lists the gamma
/// network among those its method applies to.
pub fn gamma(n: usize) -> Result<Network, NetworkError> {
    pm2i(n, false)
}

/// Feng's data manipulator / augmented data manipulator (ADM) wiring: the
/// same PM2I (±2^i) column structure as [`gamma`] but with the distances
/// applied MSB-first (`2^{bits-1}` down to `2^0`), as in the original data
/// manipulator. The paper names both as networks "with multiple paths
/// between source-destination pairs" its method applies to.
pub fn data_manipulator(n: usize) -> Result<Network, NetworkError> {
    pm2i(n, true)
}

/// Shared PM2I-column constructor behind [`gamma`] and
/// [`data_manipulator`].
fn pm2i(n: usize, msb_first: bool) -> Result<Network, NetworkError> {
    let bits = require_power_of_two(n)? as usize;
    let name = if msb_first {
        format!("adm-{n}")
    } else {
        format!("gamma-{n}")
    };
    let mut b = NetworkBuilder::new(name, n, n);
    // Column 0 boxes are 1×3 (fed by one processor); middle columns 3×3;
    // the final column of boxes is 3×1 feeding the resources.
    let mut cols: Vec<Vec<usize>> = Vec::with_capacity(bits + 1);
    cols.push((0..n).map(|_| b.add_box(0, 1, 3)).collect());
    for s in 1..bits {
        cols.push((0..n).map(|_| b.add_box(s, 3, 3)).collect());
    }
    cols.push((0..n).map(|_| b.add_box(bits, 3, 1)).collect());
    for (p, &bx) in cols[0].iter().enumerate() {
        b.link_proc_to_box(p, bx, 0);
    }
    for i in 0..bits {
        let d = if msb_first {
            1usize << (bits - 1 - i)
        } else {
            1usize << i
        };
        let skip_minus = 2 * d == n || n == d; // ±d coincide (mod n)
        for j in 0..n {
            let src = cols[i][j];
            // plus -> input port 0 of target; straight -> port 1; minus -> port 2.
            b.link_box_to_box(src, 0, cols[i + 1][(j + d) % n], 0);
            b.link_box_to_box(src, 1, cols[i + 1][j], 1);
            if !skip_minus {
                b.link_box_to_box(src, 2, cols[i + 1][(j + n - d) % n], 2);
            }
        }
    }
    for (r, &bx) in cols[bits].iter().enumerate() {
        b.link_box_to_res(bx, 0, r);
    }
    b.build()
}

/// The network a builder above names `name`, the inverse of
/// [`Network::name`] for every family: `omega-8`, `omega-8x2` (dilated),
/// `omega-8+1` (extra stages), `3dp-omega-8`, `flip-8`, `baseline-8`,
/// `cube-8`, `indirect-cube-8`, `benes-8`, `crossbar-8x4`, `clos-2-2-4`,
/// `delta-2^3`, `gamma-8` and `adm-8`.
///
/// A name that no builder prints, one that spells a number another way
/// (`omega-08`) included, is [`NetworkError::UnknownName`]; a well-formed
/// name with unusable sizes is the builder's own error.
pub fn by_name(name: &str) -> Result<Network, NetworkError> {
    let unknown = || NetworkError::UnknownName(name.to_string());
    let num = |s: &str| s.parse::<usize>().map_err(|_| unknown());
    // The family ends at the first `-` that a size follows: `3dp-omega-8`
    // is family `3dp-omega`, `clos-2-2-4` family `clos`.
    let (family, size) = name
        .char_indices()
        .find(|&(i, c)| c == '-' && name[i + 1..].starts_with(|d: char| d.is_ascii_digit()))
        .map(|(i, _)| (&name[..i], &name[i + 1..]))
        .ok_or_else(unknown)?;
    let net = match family {
        "omega" => match (size.split_once('x'), size.split_once('+')) {
            (Some((n, d)), _) => omega_dilated(num(n)?, num(d)?),
            (None, Some((n, extra))) => omega_extra_stage(num(n)?, num(extra)?),
            (None, None) => omega(num(size)?),
        },
        "3dp-omega" => omega_3dp(num(size)?),
        "flip" => flip(num(size)?),
        "baseline" => baseline(num(size)?),
        "cube" => generalized_cube(num(size)?),
        "indirect-cube" => indirect_cube(num(size)?),
        "benes" => benes(num(size)?),
        "crossbar" => {
            let (n, m) = size.split_once('x').ok_or_else(unknown)?;
            crossbar(num(n)?, num(m)?)
        }
        "clos" => {
            let (m, rest) = size.split_once('-').ok_or_else(unknown)?;
            let (n, r) = rest.split_once('-').ok_or_else(unknown)?;
            clos(num(m)?, num(n)?, num(r)?)
        }
        "delta" => {
            let (a, digits) = size.split_once('^').ok_or_else(unknown)?;
            delta(num(a)?, digits.parse().map_err(|_| unknown())?)
        }
        "gamma" => gamma(num(size)?),
        "adm" => data_manipulator(num(size)?),
        _ => return Err(unknown()),
    }?;
    if net.name() == name {
        Ok(net)
    } else {
        Err(unknown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitState;

    /// Every processor must reach every resource in an unloaded network
    /// (full access, the defining property of these MINs).
    fn assert_full_access(net: &Network) {
        let cs = CircuitState::new(net);
        for p in 0..net.num_processors() {
            for r in 0..net.num_resources() {
                assert!(
                    cs.find_path(p, r).is_some(),
                    "{}: no path p{} -> r{}",
                    net.name(),
                    p + 1,
                    r + 1
                );
            }
        }
    }

    #[test]
    fn omega_shape_and_access() {
        let net = omega(8).unwrap();
        assert_eq!(net.num_stages(), 3);
        assert_eq!(net.num_boxes(), 12);
        // links: 8 (proc) + 2*8 (inter-stage) + 8 (res) = 32.
        assert_eq!(net.num_links(), 32);
        assert_full_access(&net);
    }

    #[test]
    fn omega_unique_path_property() {
        // An Omega network has exactly one path per (p, r) pair: occupying
        // it must block that pair entirely.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let c = cs.connect(3, 5).unwrap();
        assert!(cs.find_path(3, 5).is_none());
        cs.release(c).unwrap();
        assert!(cs.find_path(3, 5).is_some());
    }

    #[test]
    fn baseline_shape_and_access() {
        let net = baseline(8).unwrap();
        assert_eq!(net.num_stages(), 3);
        assert_full_access(&net);
        assert_full_access(&baseline(4).unwrap());
        assert_full_access(&baseline(16).unwrap());
    }

    #[test]
    fn flip_network_access_and_shape() {
        let net = flip(8).unwrap();
        assert_eq!(net.num_stages(), 3);
        assert_eq!(net.num_links(), 32);
        assert_full_access(&net);
        // Flip is the Omega mirrored: same element counts, different wiring.
        let om = omega(8).unwrap();
        assert_eq!(net.num_boxes(), om.num_boxes());
    }

    #[test]
    fn cube_networks_access() {
        assert_full_access(&generalized_cube(8).unwrap());
        assert_full_access(&indirect_cube(8).unwrap());
        assert_full_access(&generalized_cube(16).unwrap());
    }

    #[test]
    fn benes_shape_and_access() {
        let net = benes(8).unwrap();
        assert_eq!(net.num_stages(), 5);
        assert_eq!(net.num_boxes(), 20);
        assert_full_access(&net);
        assert_full_access(&benes(4).unwrap());
    }

    #[test]
    fn benes_has_redundant_paths() {
        // Unlike Omega, Benes keeps connectivity after one circuit.
        let net = benes(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(0, 0).unwrap();
        // p1 can still reach r... every other pair not using p0/r0 endpoints.
        for r in 1..8 {
            assert!(cs.find_path(1, r).is_some(), "r{}", r + 1);
        }
    }

    #[test]
    fn crossbar_access_and_nonblocking() {
        let net = crossbar(4, 6).unwrap();
        assert_full_access(&net);
        let mut cs = CircuitState::new(&net);
        // A crossbar supports any matching without blocking.
        for p in 0..4 {
            cs.connect(p, p + 1).unwrap();
        }
    }

    #[test]
    fn clos_access() {
        let net = clos(3, 2, 3).unwrap(); // 6x6, m=n+1: rearrangeable+
        assert_eq!(net.num_processors(), 6);
        assert_eq!(net.num_boxes(), 3 + 3 + 3);
        assert_full_access(&net);
    }

    #[test]
    fn delta_access_and_omega_equivalence() {
        let net = delta(3, 2).unwrap(); // 9x9 of 3x3 boxes
        assert_eq!(net.num_processors(), 9);
        assert_eq!(net.num_stages(), 2);
        assert_full_access(&net);
        // Binary delta == omega in shape.
        let d = delta(2, 3).unwrap();
        let o = omega(8).unwrap();
        assert_eq!(d.num_boxes(), o.num_boxes());
        assert_eq!(d.num_links(), o.num_links());
        assert_full_access(&d);
    }

    #[test]
    fn gamma_access_and_redundancy() {
        let net = gamma(8).unwrap();
        assert_full_access(&net);
        // Redundant paths: after taking one p0->r1 path, another remains
        // (choose endpoints whose distance decomposes two ways: 1 = +1
        // straight... and -7 = +1 mod 8 via other signs).
        let mut cs = CircuitState::new(&net);
        let path = cs.find_path(0, 1).unwrap();
        cs.establish(&path).unwrap();
        // The first link (p0 -> col0 box) is now occupied, so p0 is cut off;
        // but other processors still reach r2 through redundant wiring.
        assert!(cs.find_path(7, 1).is_none() || cs.find_path(7, 1).is_some());
        // Structural redundancy: count distinct paths 0 -> 2 in free net.
        let cs2 = CircuitState::new(&net);
        assert!(cs2.find_path(0, 2).is_some());
    }

    #[test]
    fn extra_stages_add_paths() {
        let net0 = omega(8).unwrap();
        let net1 = omega_extra_stage(8, 1).unwrap();
        assert_eq!(net1.num_stages(), 4);
        assert_eq!(net1.num_boxes(), 16);
        assert_full_access(&net1);
        // With an extra stage, blocking one circuit no longer cuts off a
        // specific second pair that conflicts in the plain Omega.
        // Find a pair that conflicts in omega-8: p1->r1 uses the same
        // stage-0 output as p5->r1? We just check total reachability count
        // after one circuit is never worse than in the plain network.
        let mut cs0 = CircuitState::new(&net0);
        let mut cs1 = CircuitState::new(&net1);
        cs0.connect(0, 0).unwrap();
        cs1.connect(0, 0).unwrap();
        let reach = |cs: &CircuitState, n: usize| -> usize {
            let mut k = 0;
            for p in 1..n {
                for r in 1..n {
                    if cs.find_path(p, r).is_some() {
                        k += 1;
                    }
                }
            }
            k
        };
        assert!(reach(&cs1, 8) >= reach(&cs0, 8));
    }

    #[test]
    fn three_disjoint_paths_shape_and_access() {
        let net = omega_3dp(8).unwrap();
        assert_eq!(net.num_stages(), 5); // entry + 3 omega stages + exit
        assert_eq!(net.num_boxes(), 8 + 3 * 3 * 4 + 8);
        // links: 8 proc + 24 fan-out + 3 planes × 2 gaps × 8 + 24 merge + 8 res.
        assert_eq!(net.num_links(), 8 + 24 + 48 + 24 + 8);
        assert_full_access(&net);
        assert_full_access(&omega_3dp(4).unwrap());
        assert_full_access(&omega_3dp(2).unwrap());
    }

    #[test]
    fn three_disjoint_paths_survive_plane_loss() {
        // Killing every box of one plane (a whole-plane correlated domain)
        // leaves full access through the other two planes.
        let net = omega_3dp(8).unwrap();
        let mut cs = CircuitState::new(&net);
        // Plane 0 of interior stage s starts at box 8 + s*3*4.
        for s in 0..3 {
            for i in 0..4 {
                cs.fail_box(8 + s * 12 + i);
            }
        }
        assert_full_access_on(&cs, &net);
    }

    /// Like `assert_full_access` but over an existing (degraded) state.
    fn assert_full_access_on(cs: &CircuitState, net: &Network) {
        for p in 0..net.num_processors() {
            for r in 0..net.num_resources() {
                assert!(
                    cs.find_path(p, r).is_some(),
                    "{}: no path p{} -> r{}",
                    net.name(),
                    p + 1,
                    r + 1
                );
            }
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(omega(6).is_err());
        assert!(omega(0).is_err());
        assert!(baseline(1).is_err());
        assert!(crossbar(0, 3).is_err());
        assert!(clos(0, 1, 1).is_err());
        assert!(delta(1, 2).is_err());
        assert!(gamma(5).is_err());
        assert!(omega_dilated(8, 0).is_err());
        assert!(omega_dilated(2, 2).is_err());
        assert!(data_manipulator(9).is_err());
    }

    #[test]
    fn data_manipulator_access_and_redundancy() {
        let net = data_manipulator(8).unwrap();
        assert_full_access(&net);
        // ADM has multiple paths for most pairs.
        let cs = CircuitState::new(&net);
        let paths = crate::routing::enumerate_paths(&cs, 0, 3);
        assert!(
            paths.len() > 1,
            "ADM should offer redundant paths, got {}",
            paths.len()
        );
        // MSB-first ordering makes it a different network from gamma with
        // the same element counts.
        let g = gamma(8).unwrap();
        assert_eq!(net.num_boxes(), g.num_boxes());
        assert_eq!(net.num_links(), g.num_links());
    }

    #[test]
    fn dilated_omega_access_and_shape() {
        let net = omega_dilated(8, 2).unwrap();
        assert_eq!(net.num_stages(), 3);
        assert_eq!(net.num_boxes(), 12);
        // links: 8 (procs) + 2 stages * 8 lines * 2 sublinks + 8 (res).
        assert_eq!(net.num_links(), 8 + 2 * 8 * 2 + 8);
        assert_full_access(&net);
    }

    #[test]
    fn dilation_reduces_blocking_structurally() {
        // In the plain omega, p1->r1 and p5->r2 conflict on a middle link
        // for some pairs; the dilated version must keep at least as many
        // pairs reachable after any single circuit.
        let plain = omega(8).unwrap();
        let dilated = omega_dilated(8, 2).unwrap();
        let mut cp = CircuitState::new(&plain);
        let mut cd = CircuitState::new(&dilated);
        cp.connect(0, 0).unwrap();
        cd.connect(0, 0).unwrap();
        let reach = |cs: &CircuitState| {
            let mut k = 0;
            for p in 1..8 {
                for r in 1..8 {
                    if cs.find_path(p, r).is_some() {
                        k += 1;
                    }
                }
            }
            k
        };
        assert!(reach(&cd) >= reach(&cp));
        assert_eq!(
            reach(&cd),
            49,
            "dilated omega keeps all 7x7 pairs reachable"
        );
    }

    #[test]
    fn fig2_paper_instance_builds() {
        // The 8x8 Omega of Fig. 2(a) exists and the two pre-established
        // circuits p2->r6 and p4->r4 can be routed.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap(); // p2 -> r6 (0-based 1 -> 5)
        cs.connect(3, 3).unwrap(); // p4 -> r4
        assert_eq!(cs.occupied_count(), 8); // two 4-link circuits
    }

    #[test]
    fn by_name_inverts_every_family_name() {
        let nets = [
            omega(8),
            omega(16),
            omega_dilated(8, 2),
            omega_extra_stage(8, 1),
            omega_extra_stage(8, 0),
            omega_3dp(8),
            flip(8),
            baseline(8),
            generalized_cube(8),
            indirect_cube(8),
            benes(8),
            crossbar(8, 8),
            crossbar(4, 2),
            clos(2, 2, 4),
            delta(3, 2),
            gamma(8),
            data_manipulator(8),
        ];
        for net in nets {
            let net = net.unwrap();
            let named = by_name(net.name()).unwrap();
            assert_eq!(named.name(), net.name());
            assert_eq!(named.fingerprint(), net.fingerprint(), "{}", net.name());
        }
    }

    #[test]
    fn by_name_rejects_names_no_builder_prints() {
        for name in [
            "",
            "omega",
            "omega-",
            "nonsense-8",
            "omega-08",
            "omega-8+x",
            "benes-8+1",
            "crossbar-8",
            "clos-2-2",
            "delta-2",
            "Omega-8",
        ] {
            assert_eq!(
                by_name(name).unwrap_err(),
                NetworkError::UnknownName(name.to_string()),
                "{name:?}"
            );
        }
        // A well-formed name with an unusable size is the builder's error.
        for name in ["omega-7", "3dp-omega-7", "crossbar-0x8", "delta-2^80"] {
            assert!(
                matches!(by_name(name), Err(NetworkError::BadParameter(_))),
                "{name:?}"
            );
        }
    }
}
