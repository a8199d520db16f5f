//! In-memory spans around the benchmark's calls into each layer's public
//! functions. Spans are leaves (no layer call nests another), so a span's
//! self time is its duration.

use std::time::Instant;

/// The layer call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `SystemState::bounding_box`, or the drift scan that replaces it on
    /// a stale-tree step.
    Bbox,
    OctreeBuild,
    OctreeMoments,
    OctreeForce,
    BvhSort,
    BvhBuild,
    BvhMoments,
    BvhForce,
    /// The leapfrog kick/drift arithmetic of one step.
    KickDrift,
    /// `HealthMonitor::check`.
    Health,
    /// `CheckpointRing::record`.
    Checkpoint,
}

impl Layer {
    /// Layers of the force solve (everything but kick/drift, health and
    /// checkpoint).
    pub fn is_force_solve(self) -> bool {
        !matches!(self, Layer::KickDrift | Layer::Health | Layer::Checkpoint)
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Spans are kept in memory and summarised after the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 12),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span for `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
        });
        r
    }

    /// Total nanoseconds spent in `layer`.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ns)
            .sum()
    }

    /// Number of spans recorded for `layer`.
    pub fn count(&self, layer: Layer) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// Total nanoseconds of every force-solve layer.
    pub fn force_solve_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer.is_force_solve())
            .map(Span::ns)
            .sum()
    }
}
