(** Recursive-descent parser for C-lite with C operator precedence (see
    the grammar sketch in the implementation and the language summary in
    {!Clite}). *)

exception Error of string

(** Lex and parse source text. *)
val parse : string -> Ast.program
