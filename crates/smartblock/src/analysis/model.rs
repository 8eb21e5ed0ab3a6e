//! The analysis model: the component/stream graph every pass reads.
//!
//! [`Model::build`] runs once per lint: it indexes writers, readers and
//! reader groups, topologically sorts the component graph (Kahn), and
//! propagates both [`StreamSpec`]s and static step counts from source
//! declarations through every component's [`Signature`]. Contract and
//! over-decomposition violations are discovered *during* propagation (they
//! are properties of the spec flow), so the model records them for the
//! contract pass to report; everything else is derived state the passes in
//! [`super::passes`] query.

use std::collections::{BTreeMap, BTreeSet};

use crate::component::{read_streams, reader_group_counts, Component};

use super::diagnostics::AnalysisIssue;
use super::spec::{Extent, StepContract, StreamSpec};

/// One workflow entry as the analyzer sees it.
pub(crate) struct EntryView<'a> {
    /// Deduplicated component label.
    pub(crate) label: &'a str,
    /// Rank count.
    pub(crate) nranks: usize,
    /// The component itself (for streams, subscriptions, signature).
    pub(crate) component: &'a dyn Component,
    /// 1-based launch-script line, when the workflow came from a script.
    pub(crate) line: Option<usize>,
}

/// Everything the passes need, computed once.
pub(crate) struct Model<'a> {
    /// The entries, in launch order.
    pub(crate) entries: &'a [EntryView<'a>],
    /// Stream → indices of entries writing it.
    pub(crate) writers: BTreeMap<String, Vec<usize>>,
    /// Stream → indices of entries reading it.
    pub(crate) readers: BTreeMap<String, Vec<usize>>,
    /// Stream → reader groups subscribed to it.
    pub(crate) reader_groups: BTreeMap<String, usize>,
    /// Writer → reader edges for every stream both ends declare.
    pub(crate) edges: BTreeSet<(usize, usize)>,
    /// Kahn order of every entry not on (or downstream of) a cycle.
    pub(crate) topo_order: Vec<usize>,
    /// Propagated stream contents (uncontested streams only).
    pub(crate) specs: BTreeMap<String, StreamSpec>,
    /// Statically known step count per stream.
    pub(crate) steps: BTreeMap<String, u64>,
    /// Contract and over-decomposition issues found during propagation,
    /// in topological order; reported by the contract pass.
    pub(crate) propagation_issues: Vec<AnalysisIssue>,
}

impl<'a> Model<'a> {
    /// Labels of the given entry indices, in the given order.
    pub(crate) fn labels_of(&self, ids: &[usize]) -> Vec<String> {
        ids.iter()
            .map(|&i| self.entries[i].label.to_string())
            .collect()
    }

    /// Builds the model: graph indexing, topo sort, spec and step-count
    /// propagation.
    pub(crate) fn build(entries: &'a [EntryView<'a>]) -> Model<'a> {
        let mut writers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut readers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            for s in e.component.output_streams() {
                writers.entry(s).or_default().push(i);
            }
            for stream in read_streams(e.component) {
                readers.entry(stream).or_default().push(i);
            }
        }
        let reader_groups = reader_group_counts(entries.iter().map(|e| (e.label, e.component)));

        // Edge writer -> reader for every stream both ends declare.
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (stream, producers) in &writers {
            if let Some(consumers) = readers.get(stream) {
                for &w in producers {
                    for &r in consumers {
                        edges.insert((w, r));
                    }
                }
            }
        }
        let topo_order = kahn_order(entries.len(), &edges);

        // Streams with several writers carry no single declaration; keep
        // them opaque (and their step counts unknown) rather than trusting
        // either writer.
        let contested: BTreeSet<&String> = writers
            .iter()
            .filter(|(_, p)| p.len() > 1)
            .map(|(s, _)| s)
            .collect();

        let mut specs: BTreeMap<String, StreamSpec> = BTreeMap::new();
        let mut steps: BTreeMap<String, u64> = BTreeMap::new();
        let mut propagation_issues = Vec::new();
        for &idx in &topo_order {
            let e = &entries[idx];
            let sig = e.component.signature();

            // Over-decomposition: more ranks than the partitioned dimension
            // has slices. Extent-1 dimensions are exempt — they are
            // inherently serial (the paper's GTCP pipeline runs multi-rank
            // Dim-Reduce on a selected, extent-1 property dimension) and
            // empty slab parts are supported at run time.
            for read in &sig.reads {
                let Some(StreamSpec::Known(arrays)) = specs.get(&read.stream) else {
                    continue;
                };
                let Some(spec) = arrays.get(&read.array) else {
                    continue;
                };
                let Some(d) = read.partition.resolve(spec.ndims()) else {
                    continue;
                };
                if let Extent::Fixed(extent) = spec.dims[d].extent {
                    if extent > 1 && e.nranks > extent {
                        propagation_issues.push(AnalysisIssue::OverDecomposed {
                            component: e.label.to_string(),
                            stream: read.stream.clone(),
                            array: read.array.clone(),
                            dim: spec.dims[d].name.clone(),
                            extent,
                            nranks: e.nranks,
                        });
                    }
                }
            }

            let input_streams = read_streams(e.component);
            let ins: Vec<StreamSpec> = input_streams
                .iter()
                .map(|s| specs.get(s).cloned().unwrap_or(StreamSpec::Opaque))
                .collect();
            let outs = e.component.output_streams();
            let opaque = || vec![StreamSpec::Opaque; outs.len()];
            // A transfer error is the finding and hides the outputs; an
            // advisory finding keeps them.
            let (out_specs, finding) = match &sig.transfer {
                None => (opaque(), None),
                Some(transfer) => match transfer(&ins) {
                    Ok(v) => {
                        let advice = sig.advisory.as_ref().and_then(|check| check(&ins));
                        (if v.len() == outs.len() { v } else { opaque() }, advice)
                    }
                    Err(error) => (opaque(), Some(error)),
                },
            };
            if let Some(error) = finding {
                propagation_issues.push(AnalysisIssue::Contract {
                    component: e.label.to_string(),
                    stream: input_streams.join(", "),
                    error,
                });
            }

            // Step-count propagation. A relative contract needs *every*
            // input's count: a join stops at the first end-of-stream, so an
            // unknown input may truncate the output below any known one.
            let distinct_inputs: BTreeSet<&String> = input_streams.iter().collect();
            let known_in: Vec<u64> = distinct_inputs
                .iter()
                .filter_map(|s| steps.get(*s))
                .copied()
                .collect();
            let all_known = !distinct_inputs.is_empty() && known_in.len() == distinct_inputs.len();
            let out_steps = match sig.steps {
                StepContract::Produces(n) => Some(n),
                StepContract::Unknown => None,
                StepContract::SameAsInput => {
                    all_known.then(|| known_in.iter().copied().min().unwrap_or(0))
                }
                StepContract::Decimates(stride) if stride >= 1 => {
                    all_known.then(|| known_in.iter().copied().min().unwrap_or(0) / stride)
                }
                StepContract::Decimates(_) => None,
            };

            for (stream, spec) in outs.iter().zip(out_specs) {
                if contested.contains(stream) {
                    continue;
                }
                specs.insert(stream.clone(), spec);
                if let Some(n) = out_steps {
                    steps.insert(stream.clone(), n);
                }
            }
        }

        Model {
            entries,
            writers,
            readers,
            reader_groups,
            edges,
            topo_order,
            specs,
            steps,
            propagation_issues,
        }
    }
}

/// Kahn's algorithm over `n` nodes; returns the topological order of every
/// node reachable without entering a cycle, lowest index first among ready
/// nodes (i.e. launch order is preserved where the graph allows).
pub(crate) fn kahn_order(n: usize, edges: &BTreeSet<(usize, usize)>) -> Vec<usize> {
    let mut indegree = vec![0usize; n];
    for &(_, b) in edges {
        indegree[b] += 1;
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        order.push(i);
        for &(a, b) in edges.range((i, 0)..(i + 1, 0)) {
            debug_assert_eq!(a, i);
            indegree[b] -= 1;
            if indegree[b] == 0 {
                ready.insert(b);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahn_handles_chains_and_cycles() {
        // 0 -> 1 -> 2, plus 3 <-> 4 cycling.
        let edges: BTreeSet<(usize, usize)> =
            [(0, 1), (1, 2), (3, 4), (4, 3)].into_iter().collect();
        let order = kahn_order(5, &edges);
        assert_eq!(order, vec![0, 1, 2]);
    }
}
