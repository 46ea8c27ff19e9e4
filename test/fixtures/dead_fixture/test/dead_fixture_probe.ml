let probe () = Dead_fixture.Exports.via_test ()
