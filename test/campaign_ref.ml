(* The in-process campaign reference of the test suites: one plain loop
   over [Faultsim.campaign_sample] — or, traced, over
   [Faultsim.vulnmap_sample] folded into a vulnerability-map builder —
   against which the forked [Runner.run] campaigns and the injection
   engines are checked. *)

module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Propagation = Ferrum_telemetry.Propagation

type t = {
  records : F.record list;  (** sample order *)
  faults : (F.classification * F.fault) list;  (** sample order *)
  vulnmap : F.vulnmap;
      (** every run's outcome; latencies and escapes only when traced *)
}

let run ?(traced = false) ?fault_bits ~seed ~samples (t : F.target) : t =
  let b = F.vulnmap_builder t in
  let records = ref [] and faults = ref [] in
  for sample = 0 to samples - 1 do
    let cls, fault, record, latency, escape =
      if traced then
        let cls, fault, record, s =
          F.vulnmap_sample ?fault_bits t ~seed ~sample
        in
        ( cls,
          fault,
          record,
          (if cls = F.Detected then Propagation.detection_latency s else None),
          if cls = F.Sdc then Some (Propagation.explain_escape s) else None )
      else
        let cls, fault, record =
          F.campaign_sample ?fault_bits t ~seed ~sample
        in
        (cls, fault, record, None, None)
    in
    F.vulnmap_add b ~sample ~static_index:fault.F.static_index cls ~latency
      ~escape;
    records := record :: !records;
    faults := (cls, fault) :: !faults
  done;
  {
    records = List.rev !records;
    faults = List.rev !faults;
    vulnmap = F.vulnmap_build b;
  }

let counts r = r.vulnmap.F.v_counts

(* The serialized record lines, as a campaign's injection file holds
   them. *)
let lines r =
  List.map (fun x -> Json.to_string (F.record_to_json x)) r.records
