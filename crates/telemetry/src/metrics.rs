//! Declared metric sets.
//!
//! A component declares its metrics once, with [`metric_set!`](crate::metric_set!), as a list
//! of documented `name: Counter | Gauge` fields. From that one list the
//! macro emits the cells the component increments, their registration
//! under `{prefix}.{field}` ([`MetricSet::register`]) and, optionally, a
//! plain snapshot struct with the same fields as `u64` / `f64` values. A
//! snapshot field therefore cannot exist without its registry cell, or the
//! reverse, and the registry and the snapshot read the same atomics.

use crate::registry::Registry;

/// A set of registry-shareable cells declared with
/// [`metric_set!`](crate::metric_set!).
pub trait MetricSet {
    /// Registers every cell of the set under `{prefix}.{field}`; the
    /// registry and the set share storage afterwards.
    fn register(&self, registry: &Registry, prefix: &str);
}

/// Declares a metric set: a cell struct of [`Counter`](crate::Counter)s
/// and [`Gauge`](crate::Gauge)s implementing [`MetricSet`], and, when a
/// snapshot struct is named first, that struct (`u64` per counter, `f64`
/// per gauge, with the given attributes) plus a `snapshot()` reading
/// every cell into it.
///
/// ```
/// use ava_telemetry::{metric_set, MetricSet, Registry};
///
/// metric_set! {
///     /// What the widget did.
///     #[derive(Debug, Clone, Copy, Default, PartialEq)]
///     pub struct WidgetStats;
///     struct WidgetCells {
///         /// Widgets built.
///         built: Counter,
///         /// Current load.
///         load: Gauge,
///     }
/// }
///
/// let cells = WidgetCells::default();
/// let registry = Registry::new();
/// cells.register(&registry, "widget.vm1");
/// cells.built.inc();
/// cells.load.set(0.5);
/// assert_eq!(cells.snapshot(), WidgetStats { built: 1, load: 0.5 });
/// assert_eq!(registry.snapshot().counters["widget.vm1.built"], 1);
/// ```
#[macro_export]
macro_rules! metric_set {
    (@value Counter) => { u64 };
    (@value Gauge) => { f64 };
    (@register $registry:ident, $name:expr, Counter, $cell:expr) => {
        $registry.register_counter($name, $cell)
    };
    (@register $registry:ident, $name:expr, Gauge, $cell:expr) => {
        $registry.register_gauge($name, $cell)
    };

    (
        $(#[$smeta:meta])*
        $svis:vis struct $Stats:ident;
        $(#[$cmeta:meta])*
        $cvis:vis struct $Cells:ident {
            $($(#[$fmeta:meta])* $field:ident: $kind:ident),* $(,)?
        }
    ) => {
        $(#[$smeta])*
        $svis struct $Stats {
            $($(#[$fmeta])* pub $field: $crate::metric_set!(@value $kind),)*
        }

        $crate::metric_set! {
            #[doc = concat!("Registry-shareable cells behind [`", stringify!($Stats), "`].")]
            $(#[$cmeta])*
            $cvis struct $Cells {
                $($(#[$fmeta])* $field: $kind),*
            }
        }

        impl $Cells {
            /// Reads every cell.
            $cvis fn snapshot(&self) -> $Stats {
                $Stats {
                    $($field: self.$field.get(),)*
                }
            }
        }
    };

    (
        $(#[$cmeta:meta])*
        $cvis:vis struct $Cells:ident {
            $($(#[$fmeta:meta])* $field:ident: $kind:ident),* $(,)?
        }
    ) => {
        $(#[$cmeta])*
        #[derive(Default)]
        $cvis struct $Cells {
            $($(#[$fmeta])* $field: $crate::$kind,)*
        }

        impl $crate::MetricSet for $Cells {
            fn register(&self, registry: &$crate::Registry, prefix: &str) {
                $(
                    $crate::metric_set!(
                        @register registry,
                        &format!("{prefix}.{}", stringify!($field)),
                        $kind,
                        &self.$field
                    );
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    metric_set! {
        /// Test snapshot.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct PairStats;
        struct PairCells {
            /// A counter.
            hits: Counter,
            /// A gauge.
            level: Gauge,
        }
    }

    metric_set! {
        struct OnlyCells {
            drops: Counter,
        }
    }

    #[test]
    fn snapshot_and_registry_share_each_cell() {
        let registry = Registry::new();
        let cells = PairCells::default();
        cells.register(&registry, "tier.vm2");
        cells.hits.add(3);
        cells.level.set(1.5);
        registry.counter("tier.vm2.hits").inc();
        assert_eq!(
            cells.snapshot(),
            PairStats {
                hits: 4,
                level: 1.5
            }
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["tier.vm2.hits"]);
        assert_eq!(snap.gauges["tier.vm2.level"], 1.5);
    }

    #[test]
    fn a_registry_only_set_registers_under_its_prefix() {
        let registry = Registry::new();
        let cells = OnlyCells::default();
        cells.register(&registry, "overload");
        cells.drops.inc();
        assert_eq!(registry.snapshot().counters["overload.drops"], 1);
    }
}
