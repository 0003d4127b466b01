(** Annotated-assembly rendering of a {!Ferrum_faultsim.Faultsim.vulnmap}.

    One listing line per static instruction — provenance, instruction
    text and, where the site was sampled, its outcome distribution and
    mean detection latency — plus a campaign summary with the
    detection-latency distribution, the most SDC-prone sites and the
    escape-explanation histogram. *)

(** Listing followed by summary. *)
val render : ?only_sampled:bool -> Ferrum_faultsim.Faultsim.vulnmap -> string
