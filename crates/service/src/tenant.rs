//! Multi-tenant admission state: per-tenant quotas and weighted-fair
//! (deficit-round-robin) sharing of the global admission watermark.
//!
//! Tenancy is opt-in and all of it is [`Tenancy`]. An empty tenant table
//! is the single-tenant service: every method does nothing and the
//! snapshot's tenant section is empty, as before tenancy. With tenants, every
//! submission carries a [`mris_types::TenantId`] and passes three tenant
//! gates; where they run among the global watermarks is `Service::gate`'s:
//!
//! 1. **Tenant queue depth** — the tenant's own undelivered-job watermark.
//! 2. **Tenant queued demand** — the tenant's own load watermark, in
//!    multiples of one machine's capacity, over its *queued* demand.
//! 3. **Weighted-fair share** — when the global queue is contended (depth at
//!    or above `fair_watermark`), admission spends *deficit credit*.
//!    Credit is earned when queued work is delivered to the policy: the
//!    delivered cost (peak demand ticks) is split among the tenants that
//!    still have work queued, proportional to their configured weights.
//!    A tenant that keeps submitting faster than its weight share earns
//!    credit is rejected with [`mris_types::TenantQuotaKind::FairShare`]
//!    until deliveries replenish it — deficit round-robin over admission
//!    slots rather than packets.
//!
//! Credit is capped at a per-tenant *burst allowance* (its weight share of
//! the whole cluster's capacity ticks), which doubles as the initial
//! deficit so a freshly started tenant can fill its share of the queue
//! before any delivery has happened. Crediting only *active* tenants (those
//! with queued work) keeps a lone busy tenant at full delivery rate instead
//! of starving it down to its weight share of an otherwise idle cluster.

use mris_types::{
    fraction, AdmissionError, Amount, CodecError, Decoder, Encoder, Instance, Job, JobId, TenantId,
    TenantQuotaKind, CAPACITY,
};

use crate::core::JobOutcome;

/// Static description of one tenant: identity, authentication token, and
/// admission quotas. Part of [`crate::ServiceConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name (the obs label value).
    pub name: String,
    /// Static bearer token presented by `mris-net` connections to
    /// authenticate as this tenant.
    pub token: String,
    /// Fair-share weight; admitted cost under contention is proportional
    /// to weights. Must be finite and positive.
    pub weight: f64,
    /// The tenant's own queue-depth watermark (counts its undelivered
    /// jobs). `usize::MAX` (the default) disables the per-tenant gate.
    pub queue_watermark: usize,
    /// The tenant's own queued-demand watermark in multiples of one
    /// machine's capacity. `f64::INFINITY` (the default) disables it.
    pub load_watermark: f64,
}

impl TenantSpec {
    /// A tenant with the given identity and weight, and permissive quotas.
    pub fn new(name: impl Into<String>, token: impl Into<String>, weight: f64) -> Self {
        TenantSpec {
            name: name.into(),
            token: token.into(),
            weight,
            queue_watermark: usize::MAX,
            load_watermark: f64::INFINITY,
        }
    }

    /// Sets the per-tenant queue-depth watermark.
    pub fn queue_watermark(mut self, watermark: usize) -> Self {
        self.queue_watermark = watermark;
        self
    }

    /// Sets the per-tenant queued-demand watermark.
    pub fn load_watermark(mut self, watermark: f64) -> Self {
        self.load_watermark = watermark;
        self
    }
}

/// Per-tenant accounting in a drained [`crate::ServiceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStat {
    /// Tenant name, copied from its [`TenantSpec`].
    pub name: String,
    /// Configured fair-share weight.
    pub weight: f64,
    /// Submissions admitted for this tenant.
    pub admitted: u64,
    /// Submissions rejected by any gate while attributed to this tenant.
    pub rejected: u64,
    /// Total admitted cost in demand ticks (peak demand across resources
    /// per job) — the quantity the weighted-fair gate divides.
    pub admitted_cost: u64,
}

/// Live admission state of one tenant.
struct TenantState {
    spec: TenantSpec,
    /// Obs label value; leaked once per service so the hot path can use
    /// `&'static str` labels.
    label: &'static str,
    /// The tenant's undelivered admitted jobs.
    queued_jobs: usize,
    /// The tenant's undelivered admitted demand, per resource.
    queued_demand: Vec<Amount>,
    /// Deficit-round-robin credit in demand ticks; spent on contended
    /// admissions, earned from deliveries, capped at `burst`.
    deficit: u64,
    /// Credit cap and initial allowance: the tenant's weight share of the
    /// cluster's total capacity ticks.
    burst: u64,
    /// Queued-demand budget in machines' capacity.
    budget: f64,
    admitted: u64,
    rejected: u64,
    admitted_cost: u64,
}

/// The service's tenant table: the three tenant gates, the charge on
/// admission and discharge on delivery, the DRR credit, the per-tenant
/// stats and the snapshot's tenant section. Empty when single-tenant.
pub(crate) struct Tenancy {
    states: Vec<TenantState>,
    /// Admitting tenant of each job, indexed by job id (0 for a job not
    /// admitted); empty when single-tenant.
    job_tenant: Vec<u32>,
    /// Offers shed by a tenant gate.
    quota_rejected: usize,
}

impl Tenancy {
    /// The table for `specs` on `machines` machines and an instance of
    /// `jobs` jobs over `resources` resources.
    pub(crate) fn new(
        specs: &[TenantSpec],
        machines: usize,
        jobs: usize,
        resources: usize,
    ) -> Self {
        let total_weight: f64 = specs.iter().map(|t| t.weight).sum();
        let states = (specs.iter())
            .map(|spec| {
                let share = spec.weight / total_weight;
                let burst = ((share * machines as f64 * CAPACITY as f64) as u64).max(1);
                TenantState {
                    spec: spec.clone(),
                    label: Box::leak(spec.name.clone().into_boxed_str()),
                    queued_jobs: 0,
                    queued_demand: vec![0; resources],
                    deficit: burst,
                    burst,
                    budget: spec.load_watermark * machines as f64,
                    admitted: 0,
                    rejected: 0,
                    admitted_cost: 0,
                }
            })
            .collect();
        Tenancy {
            states,
            job_tenant: vec![0; if specs.is_empty() { 0 } else { jobs }],
            quota_rejected: 0,
        }
    }

    /// Refuses a tenant the table does not hold (any but the default one
    /// on a single-tenant service).
    pub(crate) fn check_tenant(&self, tenant: TenantId) -> Result<(), AdmissionError> {
        let tenants = self.states.len();
        if tenant.index() >= tenants.max(1) {
            return Err(AdmissionError::UnknownTenant { tenant, tenants });
        }
        Ok(())
    }

    /// The tenant queue-depth gate.
    pub(crate) fn depth_gate(&self, tenant: TenantId) -> Result<(), TenantQuotaKind> {
        match self.states.get(tenant.index()) {
            Some(ts) if ts.queued_jobs >= ts.spec.queue_watermark => {
                Err(TenantQuotaKind::QueueDepth {
                    depth: ts.queued_jobs,
                    watermark: ts.spec.queue_watermark,
                })
            }
            _ => Ok(()),
        }
    }

    /// The tenant queued-demand gate, then on a `contended` queue the
    /// weighted-fair one; returns the deficit the admission spends.
    pub(crate) fn demand_and_fair_gates(
        &self,
        tenant: TenantId,
        job: &Job,
        contended: bool,
    ) -> Result<u64, TenantQuotaKind> {
        let Some(ts) = self.states.get(tenant.index()) else {
            return Ok(0);
        };
        let budget = ts.budget;
        if let Some((_, queued)) = over_budget(&ts.queued_demand, &job.demands, budget) {
            return Err(TenantQuotaKind::QueuedDemand {
                queued: fraction(queued),
                budget,
            });
        }
        if !contended {
            return Ok(0);
        }
        let (deficit, cost) = (ts.deficit, job_cost(job));
        if deficit < cost {
            return Err(TenantQuotaKind::FairShare { deficit, cost });
        }
        Ok(cost)
    }

    /// Charges an admitted job to `tenant`, its deficit with `spend`.
    pub(crate) fn charge(&mut self, tenant: TenantId, id: JobId, job: &Job, spend: u64) {
        let Some(ts) = self.states.get_mut(tenant.index()) else {
            return;
        };
        ts.deficit -= spend;
        ts.queued_jobs += 1;
        for (q, &d) in ts.queued_demand.iter_mut().zip(job.demands.iter()) {
            *q += d;
        }
        ts.admitted += 1;
        ts.admitted_cost += job_cost(job);
        self.job_tenant[id.index()] = tenant.0;
        mris_obs::counter_add_labeled("mris_tenant_admitted_total", ("tenant", ts.label), 1);
        mris_obs::counter_add_labeled(
            "mris_tenant_queued_demand_total",
            ("tenant", ts.label),
            job.demands.iter().sum(),
        );
    }

    /// Counts a rejection against `tenant`; `quota` if a tenant gate shed it.
    pub(crate) fn reject(&mut self, tenant: TenantId, quota: bool) {
        self.quota_rejected += quota as usize;
        if let Some(ts) = self.states.get_mut(tenant.index()) {
            ts.rejected += 1;
            mris_obs::counter_add_labeled("mris_tenant_rejected_total", ("tenant", ts.label), 1);
        }
    }

    /// Takes a delivered job off its tenant's queue; returns the cost it
    /// earns for [`Tenancy::credit`].
    pub(crate) fn discharge(&mut self, id: JobId, job: &Job) -> u64 {
        let Some(&t) = self.job_tenant.get(id.index()) else {
            return 0;
        };
        let ts = &mut self.states[t as usize];
        ts.queued_jobs -= 1;
        for (q, &d) in ts.queued_demand.iter_mut().zip(job.demands.iter()) {
            *q -= d;
        }
        job_cost(job)
    }

    /// Deficit-round-robin credit: an instant's delivered cost is earned
    /// back by the tenants that still have work queued, proportional to
    /// weight, so a contended queue converges to a weight-proportional
    /// admitted split while a lone active tenant keeps the full delivery
    /// rate.
    pub(crate) fn credit(&mut self, delivered_cost: u64) {
        if delivered_cost == 0 {
            return;
        }
        let active_weight: f64 = (self.states.iter())
            .filter(|t| t.queued_jobs > 0)
            .map(|t| t.spec.weight)
            .sum();
        for ts in self.states.iter_mut() {
            if ts.queued_jobs > 0 {
                let credit = (delivered_cost as f64 * ts.spec.weight / active_weight) as u64;
                ts.deficit = (ts.deficit + credit).min(ts.burst);
            } else {
                // The tenant left the active set: restore its burst
                // allowance (the DRR deficit reset) so it re-enters
                // contention from the same starting line.
                ts.deficit = ts.burst;
            }
        }
    }

    /// Offers shed by a tenant gate.
    pub(crate) fn quota_rejected(&self) -> usize {
        self.quota_rejected
    }

    /// Per-tenant accounting, in table order.
    pub(crate) fn stats(&self) -> Vec<TenantStat> {
        (self.states.iter())
            .map(|ts| TenantStat {
                name: ts.spec.name.clone(),
                weight: ts.spec.weight,
                admitted: ts.admitted,
                rejected: ts.rejected,
                admitted_cost: ts.admitted_cost,
            })
            .collect()
    }

    /// The snapshot's tenant section; no bytes for an empty table.
    pub(crate) fn encode(&self, e: &mut Encoder) {
        if self.states.is_empty() {
            return;
        }
        e.u64(self.states.len() as u64);
        for ts in &self.states {
            e.u64(ts.queued_jobs as u64);
            e.u64(ts.deficit);
            e.u64(ts.admitted);
            e.u64(ts.rejected);
            e.u64(ts.admitted_cost);
            e.u64(ts.queued_demand.len() as u64);
            for &d in &ts.queued_demand {
                e.u64(d);
            }
        }
        e.u64(self.quota_rejected as u64);
        for &t in &self.job_tenant {
            e.u32(t);
        }
    }

    /// The inverse of [`Tenancy::encode`], filling this freshly built table
    /// (whose labels are already leaked) rather than building a second.
    pub(crate) fn decode_into(&mut self, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        if self.states.is_empty() {
            return Ok(());
        }
        d.expect_count(self.states.len(), "tenant count")?;
        for ts in &mut self.states {
            ts.queued_jobs = d.u64()? as usize;
            ts.deficit = d.u64()?;
            ts.admitted = d.u64()?;
            ts.rejected = d.u64()?;
            ts.admitted_cost = d.u64()?;
            d.expect_count(ts.queued_demand.len(), "tenant queued demand width")?;
            for q in &mut ts.queued_demand {
                *q = d.u64()?;
            }
        }
        self.quota_rejected = d.u64()? as usize;
        for t in &mut self.job_tenant {
            *t = d.u32()?;
        }
        Ok(())
    }

    /// Checks a decoded table against the decoded ledger: each job's
    /// tenant is in range, each tenant's accounting is what its jobs add
    /// up to (`undelivered` are the queued and held ones), and the
    /// tenants' rejections are the ledger's.
    pub(crate) fn check_jobs(
        &self,
        instance: &Instance,
        outcomes: &[JobOutcome],
        undelivered: &[JobId],
    ) -> Result<(), &'static str> {
        if self.states.is_empty() {
            return Ok(());
        }
        let t_count = self.states.len();
        let mut expect: Vec<(usize, Vec<Amount>, u64, u64)> =
            vec![(0, vec![0; instance.num_resources()], 0, 0); t_count];
        for (j, &t) in self.job_tenant.iter().enumerate() {
            let admitted = matches!(outcomes[j], JobOutcome::Accepted | JobOutcome::Completed);
            if t as usize >= t_count || (!admitted && t != 0) {
                return Err("a job's tenant is out of range");
            }
            if admitted {
                let e = &mut expect[t as usize];
                e.2 += 1;
                e.3 += job_cost(instance.job(JobId(j as u32)));
            }
        }
        for &j in undelivered {
            let e = &mut expect[self.job_tenant[j.index()] as usize];
            e.0 += 1;
            for (q, &dem) in e.1.iter_mut().zip(instance.job(j).demands.iter()) {
                *q += dem;
            }
        }
        let rejected = (self.states.iter()).fold(0u64, |sum, ts| sum.saturating_add(ts.rejected));
        let rejections = (outcomes.iter())
            .filter(|o| matches!(o, JobOutcome::Rejected(_)))
            .count() as u64;
        let jobs = outcomes.len() as u64;
        let consistent = self.states.iter().zip(&expect).all(|(ts, e)| {
            (
                ts.queued_jobs,
                &ts.queued_demand,
                ts.admitted,
                ts.admitted_cost,
            ) == (e.0, &e.1, e.2, e.3)
                && ts.deficit <= ts.burst
                && ts.rejected <= jobs
        });
        if !consistent || rejected != rejections {
            return Err("tenant accounting disagrees with the tenants' jobs");
        }
        Ok(())
    }
}

/// The first resource, and its queued amount, on which `demands` would push
/// `queued` past `budget` machines' capacity; `None` if it fits.
pub(crate) fn over_budget(
    queued: &[Amount],
    demands: &[Amount],
    budget: f64,
) -> Option<(usize, Amount)> {
    let ticks = budget * CAPACITY as f64;
    if !ticks.is_finite() {
        return None;
    }
    (queued.iter().zip(demands))
        .position(|(&q, &d)| (q + d) as f64 > ticks)
        .map(|resource| (resource, queued[resource]))
}

/// A job's cost in demand ticks for the fair-share gate: its peak demand
/// across resources, floored at one tick so zero-demand jobs still consume
/// an admission slot.
fn job_cost(job: &Job) -> u64 {
    job.demands.iter().copied().max().unwrap_or(0).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_is_weight_share_of_cluster_ticks() {
        let spec = |name: &str, weight| TenantSpec::new(name, name, weight);
        let tenancy = Tenancy::new(&[spec("a", 3.0), spec("b", 1.0)], 4, 0, 2);
        let (a, b) = (&tenancy.states[0], &tenancy.states[1]);
        assert_eq!(a.burst, (0.75 * 4.0 * CAPACITY as f64) as u64);
        assert_eq!(b.burst, (0.25 * 4.0 * CAPACITY as f64) as u64);
        assert_eq!(a.deficit, a.burst);
    }

    #[test]
    fn spec_builder_sets_quotas() {
        let s = TenantSpec::new("a", "t", 1.0)
            .queue_watermark(8)
            .load_watermark(2.0);
        assert_eq!(s.queue_watermark, 8);
        assert_eq!(s.load_watermark, 2.0);
    }
}
