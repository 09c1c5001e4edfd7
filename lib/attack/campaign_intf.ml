(** The counters both campaigns report.

    {!Campaign} and {!Smr_campaign} each expose one [stats] projection
    onto {!Stats.t}, with or without an adaptive strategy. *)

module Stats = struct
  type t = {
    compromised_at_step : int option;
        (** 1-based step at which the system fell; [None] while it stands *)
    direct_probes_sent : int;
    indirect_probes_sent : int;
    indirect_probes_blocked : int;
    launchpad_probes_sent : int;
    sources_burned : int;  (** attacker addresses blocked by proxies *)
    exhausted_slots : int;
        (** probe slots skipped for want of untried keys in the epoch *)
    intrusions : int;  (** individual node compromises, evicted or not *)
    directives_applied : int;
        (** adaptive directives that actually changed a setting; 0 for
            fixed-schedule campaigns *)
  }

  let zero =
    {
      compromised_at_step = None;
      direct_probes_sent = 0;
      indirect_probes_sent = 0;
      indirect_probes_blocked = 0;
      launchpad_probes_sent = 0;
      sources_burned = 0;
      exhausted_slots = 0;
      intrusions = 0;
      directives_applied = 0;
    }

  let probes_sent s = s.direct_probes_sent + s.indirect_probes_sent + s.launchpad_probes_sent

  let pp ppf s =
    Format.fprintf ppf
      "direct %d, indirect %d (%d blocked), launchpad %d, burned %d, intrusions %d%s"
      s.direct_probes_sent s.indirect_probes_sent s.indirect_probes_blocked
      s.launchpad_probes_sent s.sources_burned s.intrusions
      (match s.compromised_at_step with
      | Some step -> Printf.sprintf ", compromised at step %d" step
      | None -> "")
end
